package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/tsdb"
	"repro/internal/twin"
)

// The Client's twin methods: no production code drives a twin through
// the Go client (operators use the HTTP API), so they live with the
// tests that do.

// StartTwin posts a twin spec and returns the live session's view.
func (c *Client) StartTwin(ctx context.Context, spec twin.Spec) (TwinView, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(spec); err != nil {
		return TwinView{}, err
	}
	var v TwinView
	err := c.do(ctx, http.MethodPost, "/v1/twin", &buf, &v)
	return v, err
}

// Twin fetches one twin's status, spec and mutation log.
func (c *Client) Twin(ctx context.Context, id string) (TwinView, error) {
	var v TwinView
	err := c.do(ctx, http.MethodGet, "/v1/twin/"+id, nil, &v)
	return v, err
}

// ListTwins fetches the caller-visible twin sessions.
func (c *Client) ListTwins(ctx context.Context) ([]TwinView, error) {
	var resp twinListResponse
	err := c.do(ctx, http.MethodGet, "/v1/twin", nil, &resp)
	return resp.Twins, err
}

// MutateTwin enqueues a live mutation on a twin.
func (c *Client) MutateTwin(ctx context.Context, id string, m twin.Mutation) (TwinView, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		return TwinView{}, err
	}
	var v TwinView
	err := c.do(ctx, http.MethodPost, "/v1/twin/"+id+"/mutations", &buf, &v)
	return v, err
}

// StopTwin stops a twin session (its telemetry stays queryable).
func (c *Client) StopTwin(ctx context.Context, id string) (TwinView, error) {
	var v TwinView
	err := c.do(ctx, http.MethodDelete, "/v1/twin/"+id, nil, &v)
	return v, err
}

// TwinSeries fetches one metric's points from a twin's telemetry; an
// empty metric enumerates the recorded metrics.
func (c *Client) TwinSeries(ctx context.Context, id, metric string, sq SeriesQuery) (SeriesResponse, error) {
	return c.series(ctx, "/v1/twin/"+id+"/series", metric, sq)
}

// NewWithKeepalive is New with ": keepalive" comment frames every d on
// event streams instead of every 15 s.
func NewWithKeepalive(cfg Config, d time.Duration) *Server {
	s := New(cfg)
	s.sseKeepalive = d
	return s
}

// TSDB exposes the telemetry store.
func (s *Server) TSDB() *tsdb.Store { return s.tsdb }
