package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dvfs"
)

func TestRecorderCountsAndIntegrals(t *testing.T) {
	r := NewRecorder(0, 1000, 0)
	r.NoteSubmit()
	r.NoteSubmit()
	r.NoteSubmit()
	if err := r.NotePower(10, 2000); err != nil {
		t.Fatal(err)
	}
	if err := r.NoteCores(10, 64); err != nil {
		t.Fatal(err)
	}
	r.NoteLaunch(dvfs.F2700, 10)
	r.NoteLaunch(dvfs.F2000, 4)
	r.NoteCompletion(false)
	r.NoteCompletion(true)

	s := r.Finalize(0, 20, 4000, 128)
	if s.JobsSubmitted != 3 || s.JobsLaunched != 2 || s.JobsCompleted != 1 || s.JobsKilled != 1 {
		t.Fatalf("counters wrong: %+v", s)
	}
	// Energy: 1000 W x 10 s + 2000 W x 10 s = 30000 J.
	if s.EnergyJ != 30000 {
		t.Errorf("energy = %v, want 30000", s.EnergyJ)
	}
	// Work: 0 x 10 + 64 x 10 = 640 core-s.
	if s.WorkCoreSec != 640 {
		t.Errorf("work = %v, want 640", s.WorkCoreSec)
	}
	if s.PeakPower != 2000 {
		t.Errorf("peak = %v", s.PeakPower)
	}
	if s.MeanPower != 1500 {
		t.Errorf("mean = %v, want 1500", s.MeanPower)
	}
	// Normalizations: energy/(4000x20), work/(128x20), launched/submitted.
	if math.Abs(s.NormEnergy-30000.0/80000) > 1e-12 {
		t.Errorf("normEnergy = %v", s.NormEnergy)
	}
	if math.Abs(s.NormWork-640.0/2560) > 1e-12 {
		t.Errorf("normWork = %v", s.NormWork)
	}
	if math.Abs(s.NormLaunched-2.0/3) > 1e-12 {
		t.Errorf("normLaunched = %v", s.NormLaunched)
	}
	if s.MeanWaitSec != 7 {
		t.Errorf("meanWait = %v, want 7", s.MeanWaitSec)
	}
	if s.LaunchedByFreq[dvfs.F2700] != 1 || s.LaunchedByFreq[dvfs.F2000] != 1 {
		t.Errorf("launchedByFreq = %v", s.LaunchedByFreq)
	}
}

func TestFinalizeZeroDivisors(t *testing.T) {
	r := NewRecorder(0, 0, 0)
	s := r.Finalize(0, 0, 0, 0)
	if s.NormEnergy != 0 || s.NormWork != 0 || s.NormLaunched != 0 || s.MeanWaitSec != 0 {
		t.Errorf("zero-divisor normalizations non-zero: %+v", s)
	}
}

func TestSamplesAndFreqsUsed(t *testing.T) {
	r := NewRecorder(0, 0, 0)
	slot := func(f dvfs.Freq) int { i, _ := dvfs.CurieSlot(f); return i }
	var first, second dvfs.CurieCores
	first[slot(dvfs.F2700)] = 10
	second[slot(dvfs.F2000)] = 5
	r.AddSample(Sample{T: 0, CoresByFreq: first})
	r.AddSample(Sample{T: 60, CoresByFreq: second})
	if len(r.Samples()) != 2 {
		t.Fatalf("samples = %d", len(r.Samples()))
	}
	fs := FreqsUsed(r.Samples())
	if len(fs) != 2 || fs[0] != dvfs.F2000 || fs[1] != dvfs.F2700 {
		t.Errorf("FreqsUsed = %v, want [2.0 2.7] (zero-count excluded)", fs)
	}
}

func TestBSLD(t *testing.T) {
	r := NewRecorder(0, 0, 0)
	// Job 1: waited 90 s, ran 10 s -> BSLD = 100/10 = 10.
	r.NoteJobDone(90, 10)
	// Job 2: short job floor: waited 90 s, ran 2 s -> (92)/10 = 9.2.
	r.NoteJobDone(90, 2)
	// Job 3: no wait -> clamps to 1.
	r.NoteJobDone(0, 100)
	s := r.Finalize(0, 100, 0, 0)
	want := (10.0 + 9.2 + 1.0) / 3
	if math.Abs(s.MeanBSLD-want) > 1e-9 {
		t.Errorf("MeanBSLD = %v, want %v", s.MeanBSLD, want)
	}
	if s.MaxBSLD != 10 {
		t.Errorf("MaxBSLD = %v, want 10", s.MaxBSLD)
	}
	empty := NewRecorder(0, 0, 0).Finalize(0, 1, 0, 0)
	if empty.MeanBSLD != 0 || empty.MaxBSLD != 0 {
		t.Errorf("empty BSLD = %v/%v", empty.MeanBSLD, empty.MaxBSLD)
	}
}

func TestSummaryString(t *testing.T) {
	r := NewRecorder(0, 100, 0)
	s := r.Finalize(0, 10, 1000, 16)
	str := s.String()
	for _, frag := range []string{"energy=", "work=", "launched=", "peak="} {
		if !strings.Contains(str, frag) {
			t.Errorf("summary string missing %q: %s", frag, str)
		}
	}
}
