package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Client is the thin HTTP client of a running simd: it submits specs,
// polls for completion and streams sink-rendered reports — everything
// the CLIs' -remote mode needs, with no result decoding of its own (the
// server renders through the same sink pipeline a local run would).
type Client struct {
	// Base is the daemon address ("http://host:port", no trailing
	// slash required).
	Base string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval paces Wait (default 150ms).
	PollInterval time.Duration
	// Token, when non-empty, is sent as a bearer token on every request
	// (daemons started with -tokens-file require one).
	Token string
}

// NewClient builds a client for a daemon base URL.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// request sends one request with the client's token and the context's
// request ID attached; the caller owns the response body.
func (c *Client) request(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if id := obs.RequestIDFrom(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: %s %s: %w", method, path, err)
	}
	return resp, nil
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	resp, err := c.request(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeErr(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("service: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

func decodeErr(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err != nil || e.Error == "" {
		return &Error{Status: resp.StatusCode, Msg: fmt.Sprintf("HTTP %s", resp.Status)}
	}
	return &Error{Status: resp.StatusCode, Msg: e.Error}
}

// Submit posts a spec and returns the (possibly deduped) run.
func (c *Client) Submit(ctx context.Context, spec sim.RunSpec) (RunView, bool, error) {
	var buf bytes.Buffer
	if err := spec.EncodeJSON(&buf); err != nil {
		return RunView{}, false, err
	}
	var resp submitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/runs", &buf, &resp); err != nil {
		return RunView{}, false, err
	}
	return resp.Run, resp.CacheHit, nil
}

// Get fetches one run's status (without the report payload).
func (c *Client) Get(ctx context.Context, id string) (RunView, error) {
	var v RunView
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id+"?report=0", nil, &v)
	return v, err
}

// List fetches one page of the daemon's runs listing. The filter's
// Cursor resumes where a previous page's NextCursor left off.
func (c *Client) List(ctx context.Context, f ListFilter) ([]RunView, string, error) {
	q := url.Values{}
	set := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	set("state", f.State)
	set("hash", f.HashPrefix)
	set("policy", f.Policy)
	set("kind", f.Kind)
	set("name", f.Name)
	set("tenant", f.Tenant)
	if !f.Since.IsZero() {
		q.Set("since", f.Since.Format(time.RFC3339))
	}
	if !f.Until.IsZero() {
		q.Set("until", f.Until.Format(time.RFC3339))
	}
	set("cursor", f.Cursor)
	if f.Limit > 0 {
		q.Set("limit", strconv.Itoa(f.Limit))
	}
	path := "/v1/runs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var resp listResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, "", err
	}
	return resp.Runs, resp.NextCursor, nil
}

// SeriesQuery parameterizes a Series call; the zero value asks for the
// full raw series. Res is the coarsest acceptable simulated
// seconds-per-point.
type SeriesQuery struct {
	Res int64
}

// Series fetches one metric's points from a run's telemetry
// (/v1/runs/{id}/series). An empty metric name enumerates the run's
// recorded metrics instead of returning points.
func (c *Client) Series(ctx context.Context, id, metric string, sq SeriesQuery) (SeriesResponse, error) {
	return c.series(ctx, "/v1/runs/"+id+"/series", metric, sq)
}

// series builds and sends the series query of a run (Series) or, from
// the tests' twin client, of a twin.
func (c *Client) series(ctx context.Context, path, metric string, sq SeriesQuery) (SeriesResponse, error) {
	q := url.Values{}
	if metric != "" {
		q.Set("metric", metric)
	}
	if sq.Res != 0 {
		q.Set("res", strconv.FormatInt(sq.Res, 10))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var resp SeriesResponse
	err := c.do(ctx, http.MethodGet, path, nil, &resp)
	return resp, err
}

// Stats fetches the daemon's /v1/stats counters (the fleet gateway
// aggregates member stats through this).
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Cancel cancels a run.
func (c *Client) Cancel(ctx context.Context, id string) (RunView, error) {
	var v RunView
	err := c.do(ctx, http.MethodDelete, "/v1/runs/"+id, nil, &v)
	return v, err
}

// Wait polls until the run is terminal, invoking onChange (when
// non-nil) whenever the observed cell progress advances.
func (c *Client) Wait(ctx context.Context, id string, onChange func(RunView)) (RunView, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 150 * time.Millisecond
	}
	lastDone := -1
	for {
		v, err := c.Get(ctx, id)
		if err != nil {
			return v, err
		}
		if onChange != nil && v.CellsDone != lastDone {
			lastDone = v.CellsDone
			onChange(v)
		}
		if v.Terminal() {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// Export names one report rendering RunAndRender writes to a file.
type Export struct {
	// Path is the destination file; empty exports are skipped.
	Path string
	// Format is a sink name (json|csv|ascii).
	Format string
	// Label names the artifact in the confirmation line.
	Label string
}

// RunAndRender is the whole -remote flow the CLIs share: submit the
// spec, narrate the dedupe verdict and cell progress to out, wait for
// completion, stream the daemon's ASCII rendering, then write each
// export through the daemon's sink pipeline. Every result byte is
// rendered server-side, so remote output matches a local run of the
// same spec.
func (c *Client) RunAndRender(ctx context.Context, spec sim.RunSpec, opt sim.SinkOptions, out io.Writer, exports ...Export) error {
	v, hit, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "submitted %s run %s to %s (spec %.12s)\n", v.Mode, v.ID, c.Base, v.SpecHash)
	if hit {
		fmt.Fprintf(out, "deduped into existing %s run (cache hit #%d)\n", v.State, v.CacheHits)
	}
	v, err = c.Wait(ctx, v.ID, func(rv RunView) {
		if rv.CellsTotal > 1 {
			fmt.Fprintf(out, "  [%d/%d] cells finished\n", rv.CellsDone, rv.CellsTotal)
		}
	})
	if err != nil {
		return err
	}
	if v.State != StateDone {
		return fmt.Errorf("run %s %s: %s", v.ID, v.State, v.Error)
	}
	fmt.Fprintln(out)
	if err := c.WriteReport(ctx, v.ID, "ascii", opt, out); err != nil {
		return err
	}
	for _, exp := range exports {
		if exp.Path == "" {
			continue
		}
		if err := c.writeReportFile(ctx, v.ID, exp, opt); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s written to %s\n", exp.Label, exp.Path)
	}
	return nil
}

func (c *Client) writeReportFile(ctx context.Context, id string, exp Export, opt sim.SinkOptions) error {
	f, err := os.Create(exp.Path)
	if err != nil {
		return err
	}
	if err := c.WriteReport(ctx, id, exp.Format, opt, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteReport streams the run's report in the named sink format into w
// — the remote counterpart of sim.Export on a local report.
func (c *Client) WriteReport(ctx context.Context, id, format string, opt sim.SinkOptions, w io.Writer) error {
	path := fmt.Sprintf("/v1/runs/%s/report?format=%s&width=%d&height=%d", id, format, opt.Width, opt.Height)
	resp, err := c.request(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeErr(resp)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
