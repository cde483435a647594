package trace

import (
	"bytes"
	"testing"

	"repro/internal/job"
)

// Native Go fuzz targets for the streaming SWF pipeline. The seed
// corpus (inline here plus the checked-in files under
// testdata/fuzz/) covers valid records, truncated lines, malformed
// numerics and pathological values; the targets assert the parsing
// contracts rather than just crash-freedom:
//
//   - Scanner never yields a job that fails job.Validate (consumers
//     schedule whatever it yields),
//   - errors are sticky and end-of-stream is stable,
//   - the transform chain never panics and preserves the per-record
//     contracts whatever the input bytes.

// scannerSeeds is the shared seed corpus of both targets.
var scannerSeeds = []string{
	// Valid records (Writer's own field layout).
	"1 0 -1 120 16 -1 -1 16 600 -1 1 7 -1 -1 -1 -1 -1 -1\n" +
		"2 60 -1 30 4 -1 -1 4 60 -1 1 8 -1 -1 -1 -1 -1 -1\n",
	// Header comments and blank lines.
	"; UnixStartTime: 0\n; MaxNodes: 80\n\n1 0 -1 10 1 -1 -1 1 10 -1 1 1 -1 -1 -1 -1 -1 -1\n",
	// Incomplete records the replay filter drops (unknown runtime or
	// processors).
	"3 0 -1 -1 8 -1 -1 8 60 -1 1 2 -1 -1 -1 -1 -1 -1\n" +
		"4 0 -1 50 -1 -1 -1 -1 60 -1 1 2 -1 -1 -1 -1 -1 -1\n",
	// Truncated line (too few fields).
	"5 0 -1 10\n",
	// Malformed numerics.
	"abc def ghi jkl mno\n",
	"6 zero -1 10 1 -1 -1 1 10 -1 1 1 -1 -1 -1 -1 -1 -1\n",
	// Pathological values: NaN, infinities, out-of-int64 floats,
	// negatives everywhere.
	"7 NaN -1 10 1 -1 -1 1 10 -1 1 1 -1 -1 -1 -1 -1 -1\n",
	"8 0 -1 Inf 1 -1 -1 1 10 -1 1 1 -1 -1 -1 -1 -1 -1\n",
	"9 0 -1 1e300 1 -1 -1 1 10 -1 1 1 -1 -1 -1 -1 -1 -1\n",
	"10 -5 -1 10 1 -1 -1 1 -20 -1 1 1 -1 -1 -1 -1 -1 -1\n",
	"11 9223372036854775807 -1 10 1 -1 -1 1 10 -1 1 1 -1 -1 -1 -1 -1 -1\n",
	// Walltime below runtime (scanner must lift it).
	"12 0 -1 100 2 -1 -1 2 5 -1 1 1 -1 -1 -1 -1 -1 -1\n",
	// Empty and whitespace-only inputs.
	"",
	"   \n\t\n",
}

// drainScanner pulls the whole stream, checking the per-record
// contract; it returns the records and whether an error ended the
// stream.
func drainScanner(t *testing.T, sc *Scanner) ([]*job.Job, error) {
	t.Helper()
	var out []*job.Job
	for {
		j, err := sc.Next()
		if err != nil {
			// Errors must be sticky.
			if _, err2 := sc.Next(); err2 == nil {
				t.Fatalf("scanner error %v not sticky", err)
			}
			return out, err
		}
		if j == nil {
			// End of stream must be stable.
			if j2, err2 := sc.Next(); j2 != nil || err2 != nil {
				t.Fatalf("scanner yielded (%v, %v) after end of stream", j2, err2)
			}
			return out, nil
		}
		if err := j.Validate(); err != nil {
			t.Fatalf("scanner yielded invalid job: %v", err)
		}
		out = append(out, j)
	}
}

func FuzzScanner(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewScanner(bytes.NewReader(data))
		jobs, err := drainScanner(t, sc)
		if err != nil {
			return
		}
		// Round-trip: whatever parsed must serialize and re-parse to
		// the same scheduling-relevant fields.
		var buf bytes.Buffer
		w := NewWriter(&buf, "fuzz")
		for _, j := range jobs {
			if err := w.Write(j); err != nil {
				t.Fatalf("write back: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		back, err := drainScanner(t, NewScanner(&buf))
		if err != nil {
			t.Fatalf("re-parse of written output: %v", err)
		}
		if len(back) != len(jobs) {
			t.Fatalf("round trip kept %d of %d jobs", len(back), len(jobs))
		}
		for i, j := range jobs {
			b := back[i]
			if b.ID != j.ID || b.Cores != j.Cores || b.Submit != j.Submit ||
				b.Runtime != j.Runtime || b.Walltime != j.Walltime {
				t.Fatalf("round trip changed job %d: %+v -> %+v", i, j, b)
			}
		}
	})
}

func FuzzStreamTransforms(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add([]byte(s), int64(0), int64(3600), 1.0, 16, 8, 10)
	}
	f.Add([]byte("1 0 -1 120 16 -1 -1 16 600 -1 1 7 -1 -1 -1 -1 -1 -1\n"),
		int64(-5), int64(-1), -2.5, 0, -3, -1)
	f.Add([]byte("1 0 -1 120 16 -1 -1 16 600 -1 1 7 -1 -1 -1 -1 -1 -1\n"),
		int64(100), int64(100), 0.5, 1000000, 1, 2)
	f.Fuzz(func(t *testing.T, data []byte, wstart, wend int64, scale float64, coresFrom, coresTo, limit int) {
		// The chain mirrors SWFSource.transforms over arbitrary
		// parameters; invalid configurations must surface as stream
		// errors, never panics.
		var src Stream = NewScanner(bytes.NewReader(data))
		src = Window(src, wstart, wend)
		src = ScaleTime(src, scale)
		src = ScaleCores(src, coresFrom, coresTo)
		if limit >= 0 {
			src = Limit(src, limit)
		}
		n := 0
		for {
			j, err := src.Next()
			if err != nil {
				if j != nil {
					t.Fatal("stream returned a job alongside an error")
				}
				// Sticky.
				if _, err2 := src.Next(); err2 == nil {
					t.Fatal("stream error not sticky")
				}
				return
			}
			if j == nil {
				return
			}
			n++
			if limit >= 0 && n > limit {
				t.Fatalf("Limit(%d) passed %d jobs", limit, n)
			}
			if j.Cores < 1 {
				t.Fatalf("transform chain yielded %d cores", j.Cores)
			}
			if coresFrom > 0 && coresTo > 0 && j.Cores > coresTo {
				t.Fatalf("ScaleCores yielded %d cores on a %d-core machine", j.Cores, coresTo)
			}
			if j.Submit < 0 && wstart >= 0 && scale > 0 {
				t.Fatalf("windowed+scaled submit %d negative", j.Submit)
			}
		}
	})
}
