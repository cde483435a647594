package trace

import (
	"math"
	"os"

	"repro/internal/job"
)

// SWFSource turns an SWF trace file plus a transform chain into a
// workload source: the file is scanned lazily and each record flows
// through window extraction, arrival-rate rescaling, cluster-size
// rescaling and filtering without the trace ever being materialized.
// replay.Scenario carries one of these to replay real Parallel Workloads
// Archive traces; every scenario cell opens its own independent stream,
// so sweep workers never share reader state.
type SWFSource struct {
	// Path is the SWF trace file.
	Path string
	// WindowStart/WindowEnd extract the submit-time window
	// [WindowStart, WindowEnd) and re-base it to t=0; both zero means
	// the whole trace, and WindowEnd zero with WindowStart set means
	// "from WindowStart to the end of the trace". Requires a
	// submit-sorted trace (the archive convention) — scanning stops at
	// the window end.
	WindowStart, WindowEnd int64
	// TimeScale multiplies submit times; 0 or 1 leaves arrivals
	// unchanged, 0.5 doubles the submission pressure. Negative values
	// are an error, not a no-op.
	TimeScale float64
	// CoresFrom/CoresTo rescale job widths from a CoresFrom-core
	// machine onto a CoresTo-core one, preserving each job's machine
	// fraction. Both zero (or equal) means no rescaling; setting only
	// one, or a non-positive size, is an error.
	CoresFrom, CoresTo int
	// MaxJobs, when positive, truncates the stream after that many jobs.
	MaxJobs int
}

// transforms wires the configured chain around a raw record stream.
// Configured-but-invalid values (negative scales, zero machine sizes)
// reach their transform and surface as errors rather than silently
// replaying the trace untransformed.
func (s SWFSource) transforms(src Stream) Stream {
	if s.WindowStart != 0 || s.WindowEnd != 0 {
		end := s.WindowEnd
		if end == 0 {
			end = math.MaxInt64 // open-ended: from WindowStart to EOF
		}
		src = Window(src, s.WindowStart, end)
	}
	if s.TimeScale != 0 && s.TimeScale != 1 {
		src = ScaleTime(src, s.TimeScale)
	}
	if (s.CoresFrom != 0 || s.CoresTo != 0) && s.CoresFrom != s.CoresTo {
		src = ScaleCores(src, s.CoresFrom, s.CoresTo)
	}
	if s.MaxJobs > 0 {
		src = Limit(src, s.MaxJobs)
	}
	return src
}

// FileStream is an open SWFSource: a Stream plus the Close releasing the
// underlying file. Callers must Close it when done (end of stream does
// not close the file).
type FileStream struct {
	f   *os.File
	src Stream
}

// Next implements Stream.
func (fs *FileStream) Next() (*job.Job, error) { return fs.src.Next() }

// Close releases the underlying file.
func (fs *FileStream) Close() error { return fs.f.Close() }

// Open opens the trace and returns the transformed record stream.
func (s SWFSource) Open() (*FileStream, error) {
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, err
	}
	return &FileStream{f: f, src: s.transforms(NewScanner(f))}, nil
}
