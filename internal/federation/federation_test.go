package federation

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/power"
	"repro/internal/replay"
)

// testScenario is the standard small federation: three members on two
// racks each, member 0 bursty and overloaded, members 1-2 lightly
// loaded — the asymmetric fleet the division policies disagree on.
func testScenario(div replay.Division) replay.FederationScenario {
	return replay.FederationLibraryScenario(3, 2, 0.5, div)
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	fs := testScenario(replay.DivideProRata)
	fs.Members = nil
	if r := RunWith(fs, nil); r.Err == nil {
		t.Error("no members: want error")
	}
	fs = testScenario(replay.DivideProRata)
	fs.GlobalCapFraction = 1.2
	if r := RunWith(fs, nil); r.Err == nil {
		t.Error("cap fraction 1.2: want error")
	}
	fs = testScenario(replay.DivideProRata)
	fs.Members[1].CapFraction = 0.4
	if r := RunWith(fs, nil); r.Err == nil {
		t.Error("member-level cap: want error")
	}
}

// TestLockstepMatchesSingleRun pins the broker's core premise: driving
// a controller with Start + epoch-sized Advance steps + Finish replays
// the exact event sequence of one Advance to the horizon.
func TestLockstepMatchesSingleRun(t *testing.T) {
	s := replay.FederationMembers(1, 2)[0]
	dur := s.Duration()

	one, cleanup1, err := replay.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup1()
	if err := one.Start(dur); err != nil {
		t.Fatal(err)
	}
	if err := one.Advance(dur); err != nil {
		t.Fatal(err)
	}
	sumOne := one.Finish()

	stepped, cleanup2, err := replay.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup2()
	if err := stepped.Start(dur); err != nil {
		t.Fatal(err)
	}
	for tm := int64(900); tm < dur; tm += 900 {
		if err := stepped.Advance(tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := stepped.Advance(dur); err != nil {
		t.Fatal(err)
	}
	sumStepped := stepped.Finish()

	if !reflect.DeepEqual(sumOne, sumStepped) {
		t.Errorf("stepped summary differs from single run:\none:     %+v\nstepped: %+v", sumOne, sumStepped)
	}
	if !reflect.DeepEqual(one.Samples(), stepped.Samples()) {
		t.Error("stepped sample series differs from single run")
	}
}

func TestFederationDeterminism(t *testing.T) {
	for _, div := range []replay.Division{replay.DivideProRata, replay.DivideDemand} {
		a := RunWith(testScenario(div), nil)
		b := RunWith(testScenario(div), nil)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%v: run errors %v / %v", div, a.Err, b.Err)
		}
		if !reflect.DeepEqual(a.Epochs, b.Epochs) {
			t.Errorf("%v: epoch share series differ between identical runs", div)
		}
		for i := range a.Members {
			if !reflect.DeepEqual(a.Members[i].Summary, b.Members[i].Summary) {
				t.Errorf("%v: member %d summaries differ between identical runs", div, i)
			}
		}
	}
}

// TestSharesConserveGlobalBudget: no division policy may hand out more
// than the site budget, and the demand division must never cut a member
// below zero.
func TestSharesConserveGlobalBudget(t *testing.T) {
	for _, div := range []replay.Division{replay.DivideProRata, replay.DivideDemand} {
		r := RunWith(testScenario(div), nil)
		if r.Err != nil {
			t.Fatalf("%v: %v", div, r.Err)
		}
		if len(r.Epochs) == 0 {
			t.Fatalf("%v: no epoch records", div)
		}
		for _, ep := range r.Epochs {
			var sum power.Watts
			for i, c := range ep.CapW {
				if c < 0 {
					t.Fatalf("%v: t=%d member %d negative share %v", div, ep.T, i, c)
				}
				sum += c
			}
			if float64(sum) > float64(r.GlobalBudgetW)*(1+1e-9) {
				t.Fatalf("%v: t=%d shares sum to %v, budget %v", div, ep.T, sum, r.GlobalBudgetW)
			}
		}
	}
}

// TestGlobalCapSafety: the summed member draw must respect the site
// budget at every sample — members start idle (well under their initial
// shares) and the launch checks keep each under its cap, so the sum
// stays under the global budget for the whole run.
func TestGlobalCapSafety(t *testing.T) {
	for _, div := range []replay.Division{replay.DivideProRata, replay.DivideDemand} {
		r := RunWith(testScenario(div), nil)
		if r.Err != nil {
			t.Fatalf("%v: %v", div, r.Err)
		}
		if len(r.Global) == 0 {
			t.Fatalf("%v: no global samples", div)
		}
		for _, g := range r.Global {
			if float64(g.Power) > float64(r.GlobalBudgetW)*(1+1e-9) {
				t.Fatalf("%v: t=%d site draw %v exceeds budget %v", div, g.T, g.Power, r.GlobalBudgetW)
			}
		}
	}
}

// TestDemandBeatsProRataOnBurstyFleet is the headline claim of the
// demand-driven division: with one backlogged bursty member among idle
// ones, reallocating idle headroom must improve aggregate stretch.
func TestDemandBeatsProRataOnBurstyFleet(t *testing.T) {
	pro := RunWith(testScenario(replay.DivideProRata), nil)
	dem := RunWith(testScenario(replay.DivideDemand), nil)
	if pro.Err != nil || dem.Err != nil {
		t.Fatalf("run errors: %v / %v", pro.Err, dem.Err)
	}
	if pro.JobsCompleted == 0 || dem.JobsCompleted == 0 {
		t.Fatal("degenerate runs: no completions")
	}
	if dem.MeanBSLD >= pro.MeanBSLD {
		t.Errorf("demand division mean BSLD %.3f not better than pro-rata %.3f",
			dem.MeanBSLD, pro.MeanBSLD)
	}
	if dem.JobsLaunched < pro.JobsLaunched {
		t.Errorf("demand division launched %d jobs, pro-rata %d — reallocation should not launch fewer",
			dem.JobsLaunched, pro.JobsLaunched)
	}
	// The reallocation must show up in the share series: at some epoch
	// the bursty member's budget exceeds its static pro-rata share.
	share0 := float64(dem.GlobalBudgetW) * float64(dem.Members[0].MaxPower) / sumMaxPower(dem)
	raised := false
	for _, ep := range dem.Epochs {
		if float64(ep.CapW[0]) > share0*1.05 {
			raised = true
			break
		}
	}
	if !raised {
		t.Error("demand division never raised the bursty member above its pro-rata share")
	}
}

func sumMaxPower(r Result) float64 {
	var s float64
	for _, m := range r.Members {
		s += float64(m.MaxPower)
	}
	return s
}

// TestEpochBoundaryCount: redistribution happens at every interior
// epoch boundary, whatever the epoch length.
func TestEpochBoundaryCount(t *testing.T) {
	fs := testScenario(replay.DivideDemand)
	fs.EpochSec = 3600
	r := RunWith(fs, nil)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	want := int(math.Ceil(float64(fs.Duration())/3600)) - 1
	if len(r.Epochs) != want {
		t.Errorf("epochs recorded = %d, want %d", len(r.Epochs), want)
	}
}

// TestRecordsSizedUpFront: a run sizes its division records and its site
// series to their exact counts before it fills them, so neither grows
// by copying — whether the horizon is a multiple of the epoch (its last
// boundary is the horizon, where nothing is divided) or not.
func TestRecordsSizedUpFront(t *testing.T) {
	for _, duration := range []int64{4 * 900, 4*900 + 450} {
		fs := testScenario(replay.DivideDemand)
		fs.EpochSec = 900
		fs.DurationSec = duration
		r := RunWith(fs, nil)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if want := int(math.Ceil(float64(duration)/900)) - 1; len(r.Epochs) != want {
			t.Errorf("duration %d: %d epochs recorded, want %d", duration, len(r.Epochs), want)
		}
		if cap(r.Epochs) != len(r.Epochs) {
			t.Errorf("duration %d: epochs len %d, cap %d", duration, len(r.Epochs), cap(r.Epochs))
		}
		if len(r.Global) == 0 || cap(r.Global) != len(r.Global) {
			t.Errorf("duration %d: site series len %d, cap %d", duration, len(r.Global), cap(r.Global))
		}
	}
}
