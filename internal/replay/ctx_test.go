package replay

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/rjms"
	"repro/internal/trace"
)

// TestRunContextWithCancelled checks both cancellation points: a
// pre-cancelled context never builds a controller, and a cancellation
// raised mid-replay (from a sample observer, the way a service cancel
// races a running cell) stops the replay at the next step boundary with
// ctx.Err() and the partial sample series.
func TestRunContextWithCancelled(t *testing.T) {
	s := Scenario{
		Workload: shortWorkload(trace.MedianJob, 7),
		Policy:   core.PolicyShut, CapFraction: 0.6, ScaleRacks: testRacks,
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunContextWith(pre, s, nil)
	if res.Err != context.Canceled {
		t.Fatalf("pre-cancelled Err = %v, want context.Canceled", res.Err)
	}
	if res.Summary.JobsSubmitted != 0 || len(res.Samples) != 0 {
		t.Errorf("pre-cancelled run produced output: %+v", res.Summary)
	}

	full := run(s)
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	cutoff := s.Duration() / 4
	res = RunContextWith(ctx, s, func(ctl *rjms.Controller) {
		ctl.AddObserver(func(now int64) {
			if now >= cutoff {
				cancelMid()
			}
		})
	})
	if res.Err != context.Canceled {
		t.Fatalf("mid-run Err = %v, want context.Canceled", res.Err)
	}
	if len(res.Samples) == 0 {
		t.Error("mid-run cancel kept no partial samples")
	}
	if len(res.Samples) >= len(full.Samples) {
		t.Errorf("cancelled run recorded %d samples, uncancelled %d — cancellation was not prompt",
			len(res.Samples), len(full.Samples))
	}
}
