package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/job"
)

// Scanner is the streaming SWF reader: it yields one job per call in
// file order without ever materializing the trace, so arbitrarily large
// Parallel Workloads Archive traces parse in bounded memory. Header and
// comment lines (leading ';') are skipped; records with unknown (-1)
// runtimes or processor counts are dropped, the same filter the paper's
// replay applies. Archive traces are submit-sorted, which makes a
// Scanner directly usable as the head of a transform pipeline (see
// Stream).
type Scanner struct {
	sc   *bufio.Scanner
	line int
	err  error
	done bool
}

// NewScanner returns a Scanner reading SWF records from r.
func NewScanner(r io.Reader) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Scanner{sc: sc}
}

// Next returns the next complete job record, or (nil, nil) at end of
// input. Parse errors are sticky.
func (s *Scanner) Next() (*job.Job, error) {
	if s.err != nil || s.done {
		return nil, s.err
	}
	for s.sc.Scan() {
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		j, err := parseSWFLine(text, s.line)
		if err != nil {
			s.err = err
			return nil, err
		}
		if j == nil {
			continue
		}
		return j, nil
	}
	s.done = true
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("trace: %v", err)
	}
	return nil, s.err
}

// parseSWFLine parses one non-comment SWF record. It returns (nil, nil)
// for incomplete records the replay filter drops.
func parseSWFLine(text string, line int) (*job.Job, error) {
	fields := strings.Fields(text)
	if len(fields) < swfThinkTime+1 && len(fields) < 5 {
		return nil, fmt.Errorf("trace: line %d: %d fields, want at least 5", line, len(fields))
	}
	get := func(i int) (int64, error) {
		if i >= len(fields) {
			return -1, nil
		}
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return 0, fmt.Errorf("trace: line %d field %d: %v", line, i+1, err)
		}
		// Reject NaN, infinities and values outside int64: the
		// float-to-int conversion of such values is implementation
		// specific in Go (found by the parser fuzzer), and a trace
		// carrying them is corrupt, not merely incomplete.
		if math.IsNaN(v) || v >= math.MaxInt64 || v <= math.MinInt64 {
			return 0, fmt.Errorf("trace: line %d field %d: value %v out of range", line, i+1, fields[i])
		}
		return int64(v), nil
	}
	id, err := get(swfJobID)
	if err != nil {
		return nil, err
	}
	submit, err := get(swfSubmit)
	if err != nil {
		return nil, err
	}
	run, err := get(swfRunTime)
	if err != nil {
		return nil, err
	}
	procs, err := get(swfAllocProcs)
	if err != nil {
		return nil, err
	}
	reqProcs, err := get(swfReqProcs)
	if err != nil {
		return nil, err
	}
	reqTime, err := get(swfReqTime)
	if err != nil {
		return nil, err
	}
	user, err := get(swfUserID)
	if err != nil {
		return nil, err
	}

	if procs <= 0 {
		procs = reqProcs
	}
	if run < 0 || procs <= 0 {
		return nil, nil // incomplete record, mirroring the replay filter
	}
	if reqTime < run {
		reqTime = run
	}
	if submit < 0 {
		submit = 0
	}
	return &job.Job{
		ID:       job.ID(id),
		User:     "user" + strconv.FormatInt(user, 10),
		Cores:    int(procs),
		Submit:   submit,
		Runtime:  run,
		Walltime: reqTime,
	}, nil
}

// Writer serializes jobs to SWF one record at a time — the streaming
// counterpart of WriteSWF, so window/rescale pipelines can write their
// output while still reading their input. Unknown fields are written as
// -1 per the SWF convention.
type Writer struct {
	bw  *bufio.Writer
	err error
}

// NewWriter returns a Writer emitting to w, with the comment (possibly
// multi-line) as the ';'-prefixed header.
func NewWriter(w io.Writer, comment string) *Writer {
	sw := &Writer{bw: bufio.NewWriter(w)}
	if comment != "" {
		for _, l := range strings.Split(comment, "\n") {
			if _, err := fmt.Fprintf(sw.bw, "; %s\n", l); err != nil {
				sw.err = err
				break
			}
		}
	}
	return sw
}

// Write appends one job record. Errors are sticky.
func (w *Writer) Write(j *job.Job) error {
	if w.err != nil {
		return w.err
	}
	user := int64(-1)
	if n, err := strconv.ParseInt(strings.TrimPrefix(j.User, "user"), 10, 64); err == nil {
		user = n
	}
	// job submit wait run procs avgcpu mem reqprocs reqtime reqmem
	// status uid gid exe queue partition preceding think
	if _, err := fmt.Fprintf(w.bw, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d -1 -1 -1 -1 -1 -1\n",
		j.ID, j.Submit, j.Runtime, j.Cores, j.Cores, j.Walltime, user); err != nil {
		w.err = err
	}
	return w.err
}

// Flush writes any buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// Copy drains src into w, returning the number of records written.
func Copy(w *Writer, src Stream) (int, error) {
	n := 0
	for {
		j, err := src.Next()
		if err != nil {
			return n, err
		}
		if j == nil {
			return n, w.Flush()
		}
		if err := w.Write(j); err != nil {
			return n, err
		}
		n++
	}
}
