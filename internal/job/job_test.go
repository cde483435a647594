package job

import (
	"testing"

	"repro/internal/dvfs"
)

func valid() *Job {
	return &Job{ID: 1, User: "u1", Cores: 32, Submit: 10, Runtime: 120, Walltime: 3600}
}

func TestValidate(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Job){
		func(j *Job) { j.Cores = 0 },
		func(j *Job) { j.Submit = -1 },
		func(j *Job) { j.Runtime = -1 },
		func(j *Job) { j.Walltime = 60 }, // below runtime
	}
	for i, mutate := range cases {
		j := valid()
		mutate(j)
		if err := j.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, j)
		}
	}
}

func TestScaledRuntimeAndWalltime(t *testing.T) {
	j := valid()
	deg := dvfs.CurieDegradation()
	if got := j.ScaledRuntime(deg, dvfs.F2700); got != 120 {
		t.Errorf("nominal runtime = %d", got)
	}
	if got := j.ScaledRuntime(deg, dvfs.F1200); got != 196 {
		t.Errorf("min-freq runtime = %d, want 196", got)
	}
	if got := j.ScaledWalltime(deg, dvfs.F1200); got != 5868 {
		t.Errorf("min-freq walltime = %d, want 5868", got)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StatePending: "pending", StateRunning: "running",
		StateCompleted: "completed", StateKilled: "killed",
		State(7): "State(7)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d) = %q, want %q", int(s), got, want)
		}
	}
}
