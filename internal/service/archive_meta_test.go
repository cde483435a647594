package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestArchiveMetaBytes pins the bytes of an archive envelope's run
// metadata, the part of the file the service writes itself: a record
// decoded from the pinned envelope re-encodes to the file's meta
// exactly (compacted) and carries the file's telemetry snapshot
// byte for byte (compacted), and a record with every metadata field set
// encodes to a literal written by the format's first encoder and
// decodes back to itself. A renamed tag, a reordered field or a lost
// omitempty fails here before it reaches a single archive.
func TestArchiveMetaBytes(t *testing.T) {
	t.Run("PinnedEnvelope", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join("testdata", "archive",
			"fb518e50d40b7acce493955d4212ff2a6694c974f1ae884ed98f7fa3773e0791.json"))
		if err != nil {
			t.Fatal(err)
		}
		env, err := sim.DecodeEnvelope(raw)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeRecord(env)
		if err != nil {
			t.Fatal(err)
		}
		back, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, env.Meta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Meta, want.Bytes()) {
			t.Errorf("re-encoded meta:\n%s\nwant the file's:\n%s", back.Meta, want.Bytes())
		}
		// The telemetry snapshot is carried as the file holds it: written
		// back, it is the file's telemetry, compacted.
		var line bytes.Buffer
		if err := back.Encode(&line); err != nil {
			t.Fatal(err)
		}
		again, err := sim.DecodeEnvelope(line.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		want.Reset()
		if err := json.Compact(&want, env.Telemetry); err != nil {
			t.Fatal(err)
		}
		if len(env.Telemetry) == 0 || !bytes.Equal(again.Telemetry, want.Bytes()) {
			t.Errorf("re-encoded telemetry:\n%.300s\nwant the file's:\n%.300s", again.Telemetry, want.Bytes())
		}
	})

	t.Run("EveryField", func(t *testing.T) {
		spec := sim.RunSpec{
			Name:     "every-field",
			Mode:     sim.ModeSingle,
			Workload: sim.WorkloadSpec{Kind: "smalljob", Seed: 3, DurationSec: 600},
			Racks:    1,
			Policies: []string{"SHUT"},
		}
		hash, err := sim.SpecHash(spec)
		if err != nil {
			t.Fatal(err)
		}
		at := time.Date(2026, 3, 4, 5, 6, 7, 890_000_000, time.UTC)
		rec := Record{
			ID:         "r000042",
			Seq:        41,
			Tenant:     "tenant-a",
			SpecHash:   hash,
			Name:       spec.Name,
			Mode:       spec.Mode,
			Policies:   []string{"MIX", "SHUT"},
			Kinds:      []string{"smalljob"},
			State:      StateFailed,
			Error:      "cell smalljob/SHUT: boom",
			Submitted:  at,
			Started:    at.Add(1500 * time.Millisecond),
			Finished:   at.Add(4 * time.Second),
			CacheHits:  3,
			CellsDone:  2,
			CellsTotal: 5,
			Stages: &StageTimings{
				QueuedMS: 1.5, SetupMS: 0.25, ExecuteMS: 2500, RenderMS: 12.125, ArchiveMS: 3.75,
			},
			Events: []Event{
				{Seq: 0, Type: "queued"},
				{Seq: 1, Type: "started"},
				{Seq: 2, Type: "cell", Cell: "smalljob/SHUT", Done: 2, Total: 5, ElapsedMS: 812.5, Error: "boom"},
				{Seq: 3, Type: "failed", Error: "cell smalljob/SHUT: boom"},
			},
			Spec:    spec,
			Renders: map[string][]byte{"json": []byte("{}\n")},
		}
		env, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		const want = `{"id":"r000042","seq":41,"tenant":"tenant-a","name":"every-field","mode":"single",` +
			`"policies":["MIX","SHUT"],"kinds":["smalljob"],"state":"failed","error":"cell smalljob/SHUT: boom",` +
			`"submitted_at":"2026-03-04T05:06:07.89Z","started_at":"2026-03-04T05:06:09.39Z",` +
			`"finished_at":"2026-03-04T05:06:11.89Z","cache_hits":3,"cells_done":2,"cells_total":5,` +
			`"stages":{"queued_ms":1.5,"setup_ms":0.25,"execute_ms":2500,"render_ms":12.125,"archive_ms":3.75},` +
			`"events":[{"seq":0,"type":"queued"},{"seq":1,"type":"started"},` +
			`{"seq":2,"type":"cell","cell":"smalljob/SHUT","done":2,"total":5,"elapsed_ms":812.5,"error":"boom"},` +
			`{"seq":3,"type":"failed","error":"cell smalljob/SHUT: boom"}]}`
		if string(env.Meta) != want {
			t.Errorf("meta:\n%s\nwant:\n%s", env.Meta, want)
		}
		back, err := decodeRecord(env)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Errorf("decoded record:\n%+v\nwant:\n%+v", back, rec)
		}
	})
}
