package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// specFiles globs every checked-in spec file (the examples library and
// any testdata specs).
func specFiles(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, pattern := range []string{
		"../../examples/specs/*.json",
		"../../examples/*/spec.json",
		"testdata/specs/*.json",
	} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range m {
			// twin_*.json files are twin.Spec documents (internal/twin),
			// not RunSpecs; the twin suite covers their round-trip.
			if strings.HasPrefix(filepath.Base(path), "twin_") {
				continue
			}
			out = append(out, path)
		}
	}
	if len(out) == 0 {
		t.Fatal("no checked-in spec files found; the round-trip gate is running against nothing")
	}
	return out
}

// TestCheckedInSpecsRoundTrip is the CI "specs" gate: every checked-in
// spec file must validate and re-encode to exactly its own bytes, so
// the spec library never drifts from the canonical encoder form.
func TestCheckedInSpecsRoundTrip(t *testing.T) {
	for _, path := range specFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := roundTrips(data); err != nil {
			t.Errorf("%s: %v (regenerate with powersched/expfig -dumpspec)", path, err)
		}
		spec, err := LoadSpec(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		// Checked-in specs are stored normalized; loading must be a
		// fixed point.
		if n := spec.Normalize(); n.Mode != spec.Mode {
			t.Errorf("%s: stored spec is not normalized (mode %q -> %q)", path, spec.Mode, n.Mode)
		}
	}
}
