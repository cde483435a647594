package service_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/service"
)

// TestArchiveReadAllocCeiling pins what one archive read costs the heap:
// ByHash and Get of the pinned service envelope (testdata/archive,
// 22.7 kB indented) each read the file in one read of its size and
// decode it once, the telemetry snapshot kept as its bytes. A read
// allocated 98.5 kB while a json.Decoder grew its buffer over the file
// and the snapshot was decoded point by point, 63.8 kB once neither
// happened, and 50.3 kB (51.0 under the race detector) once the
// snapshot adopted the envelope's copy of its bytes instead of copying
// them again: the file and the envelope's opaque payloads. The ceiling
// leaves room for the decoder's variation, not for any of them to
// return.
func TestArchiveReadAllocCeiling(t *testing.T) {
	const ceilingKB = 60
	const hash = "fb518e50d40b7acce493955d4212ff2a6694c974f1ae884ed98f7fa3773e0791"
	raw, err := os.ReadFile(filepath.Join("testdata", "archive", hash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, hash+".json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := service.OpenFSStore(dir, service.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, err := st.ByHash(hash)
	if err != nil || !ok {
		t.Fatalf("ByHash = ok:%v err:%v", ok, err)
	}
	for _, read := range []struct {
		name string
		fn   func() (service.Record, bool, error)
	}{
		{"ByHash", func() (service.Record, bool, error) { return st.ByHash(hash) }},
		{"Get", func() (service.Record, bool, error) { return st.Get(rec.ID) }},
	} {
		const reads = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reads; i++ {
			if _, ok, err := read.fn(); err != nil || !ok {
				t.Fatalf("%s = ok:%v err:%v", read.name, ok, err)
			}
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / reads / 1e3
		t.Logf("%s of a %.1f kB envelope allocates %.1f kB (ceiling %d kB)", read.name, float64(len(raw))/1e3, kb, ceilingKB)
		if kb > ceilingKB {
			t.Errorf("%s of a %.1f kB envelope allocates %.1f kB, ceiling %d kB", read.name, float64(len(raw))/1e3, kb, ceilingKB)
		}
	}
}
