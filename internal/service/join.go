package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"
)

// FleetMember is the worker side of the fleet protocol: register with
// the gateway, then heartbeat inside the lease. Run it alongside a
// worker's Server — it owns no simulation state, only the lease
// keep-alive loop.
type FleetMember struct {
	// Gateway is the gateway base URL.
	Gateway string
	// Name is this worker's stable identity (rendezvous routing keys on
	// it).
	Name string
	// Advertise is this worker's base URL as the gateway should dial it.
	Advertise string
	// Token authenticates to the gateway when it requires bearer tokens
	// (fleet endpoints want an admin token).
	Token string
	// Interval overrides the heartbeat cadence; 0 derives a third of
	// the gateway's lease TTL.
	Interval time.Duration
}

// Run registers and heartbeats until ctx ends, re-registering whenever
// the gateway forgets the lease (a restarted gateway answers heartbeats
// with 404 — the signal to join again). Transient transport failures
// are retried at the heartbeat cadence; Run only returns on ctx
// cancellation.
func (fm *FleetMember) Run(ctx context.Context) error {
	c := &Client{
		Base:  strings.TrimRight(fm.Gateway, "/"),
		Token: fm.Token,
	}
	interval := fm.Interval
	for {
		ttl, err := fm.register(ctx, c)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Gateway down or refusing — retry after a beat.
			wait := interval
			if wait <= 0 {
				wait = time.Second
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			continue
		}
		if interval <= 0 && ttl > 0 {
			interval = ttl / 3
		}
		if interval <= 0 {
			interval = 5 * time.Second
		}
		if err := fm.heartbeatLoop(ctx, c, interval); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// 404: the gateway lost the lease — loop back to register.
			continue
		}
	}
}

// register joins the fleet once, returning the granted lease TTL.
func (fm *FleetMember) register(ctx context.Context, c *Client) (time.Duration, error) {
	body, err := json.Marshal(joinRequest{Name: fm.Name, URL: fm.Advertise})
	if err != nil {
		return 0, err
	}
	var resp joinResponse
	if err := c.do(ctx, http.MethodPost, "/v1/fleet/join", bytes.NewReader(body), &resp); err != nil {
		return 0, err
	}
	ttl, err := time.ParseDuration(resp.LeaseTTL)
	if err != nil {
		return 0, nil // lease unknown; caller falls back to defaults
	}
	return ttl, nil
}

// heartbeatLoop renews the lease until ctx ends or the gateway answers
// 404 (lease lost — re-register).
func (fm *FleetMember) heartbeatLoop(ctx context.Context, c *Client, interval time.Duration) error {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		body, err := json.Marshal(joinRequest{Name: fm.Name})
		if err != nil {
			return err
		}
		err = c.do(ctx, http.MethodPost, "/v1/fleet/heartbeat", bytes.NewReader(body), nil)
		if err == nil {
			continue
		}
		var apiErr *Error
		if errors.As(err, &apiErr) && apiErr.Status == 404 {
			return err // lease lost: re-register
		}
		// Transport blips (and non-404 refusals) ride out on the next
		// tick — the lease survives a few missed beats.
	}
}
