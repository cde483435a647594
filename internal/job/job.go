// Package job defines the job requests flowing through the RJMS: core
// counts, user runtime estimates (walltimes) and the actual runtimes the
// replay engine uses in place of real executions (the paper's "sleep"
// jobs), which the DVFS frequency chosen at launch stretches by the
// degradation model of Section V. A request is what a user submitted;
// the controller reads it and never writes it. What happens to a job
// once it runs — its frequency, launch time and allocation — is the
// controller's, kept only while the job runs.
package job

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dvfs"
)

// ID identifies a job within one workload.
type ID int64

// State is the lifecycle state of a job, as the controller reports it
// (rjms.JobView); a request does not carry it.
type State int

const (
	// StatePending means submitted and waiting in the queue.
	StatePending State = iota
	// StateRunning means dispatched on nodes.
	StateRunning
	// StateCompleted means finished normally.
	StateCompleted
	// StateKilled means terminated by the controller (e.g. the extreme
	// powercap action of Section IV-B).
	StateKilled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateKilled:
		return "killed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Alloc records cores taken on one node; a job's allocation is what
// cluster.Occupy and cluster.Vacate take whole.
type Alloc = cluster.Alloc

// Job is one workload entry: a request, never written once submitted,
// so one list may back several controllers at once. Times are
// virtual-clock seconds.
type Job struct {
	ID     ID
	User   string
	Cores  int   // requested (and allocated) core count
	Submit int64 // submission time

	// Runtime is the job's execution time at nominal frequency — what
	// the original trace observed. The replay runs a virtual "sleep" of
	// Runtime stretched by the degradation factor of the launch
	// frequency.
	Runtime int64

	// Walltime is the user's requested runtime (the estimate the
	// scheduler must trust for backfilling; on Curie it overestimates
	// Runtime by a median factor of about 12000). When a job launches
	// below nominal frequency the controller extends the walltime by
	// the same degradation factor (Section V): ScaledWalltime.
	Walltime int64
}

// Validate reports structural problems with a job record.
func (j *Job) Validate() error {
	switch {
	case j.Cores <= 0:
		return fmt.Errorf("job %d: cores = %d, want > 0", j.ID, j.Cores)
	case j.Submit < 0:
		return fmt.Errorf("job %d: negative submit time %d", j.ID, j.Submit)
	case j.Runtime < 0:
		return fmt.Errorf("job %d: negative runtime %d", j.ID, j.Runtime)
	case j.Walltime < j.Runtime:
		return fmt.Errorf("job %d: walltime %d below runtime %d", j.ID, j.Walltime, j.Runtime)
	}
	return nil
}

// ScaledRuntime returns the execution time at frequency f under the
// degradation model deg.
func (j *Job) ScaledRuntime(deg *dvfs.Degradation, f dvfs.Freq) int64 {
	return deg.ScaleDuration(j.Runtime, f)
}

// ScaledWalltime returns the requested time at frequency f under the
// degradation model deg ("the walltime of the job needs to be adapted
// respectively", Section V).
func (j *Job) ScaledWalltime(deg *dvfs.Degradation, f dvfs.Freq) int64 {
	return deg.ScaleDuration(j.Walltime, f)
}
