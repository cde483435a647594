package sim_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// fuzzSpec is the valid spec the seed envelopes wrap.
func fuzzSpec() sim.RunSpec {
	return sim.RunSpec{
		Name:         "fuzz-envelope",
		Workload:     sim.WorkloadSpec{Kind: "smalljob", Seed: 42, DurationSec: 3600},
		Racks:        1,
		Policies:     []string{"SHUT"},
		CapFractions: []float64{0.6},
	}.Normalize()
}

// fuzzEnvelope is the valid envelope the seeds are cut from.
func fuzzEnvelope(tb testing.TB) sim.Envelope {
	tb.Helper()
	env, err := sim.NewEnvelope(fuzzSpec())
	if err != nil {
		tb.Fatal(err)
	}
	env.Renders = map[string][]byte{"json": []byte(`{"ok":true}`)}
	env.Meta = []byte(`{"id":"r000001","seq":0,"state":"done"}`)
	return env
}

// TestEnvelopeEncodesCompact pins the archive's write form: Encode emits
// one line of compact JSON that decodes to exactly the envelope encoded,
// and the indented form archives written before compact encoding hold
// still decodes to that envelope.
func TestEnvelopeEncodesCompact(t *testing.T) {
	env := fuzzEnvelope(t)
	env.Telemetry = []byte(`{"series":[{"name":"power","points":[1,2,3]}]}`)
	var buf bytes.Buffer
	if err := env.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	line := buf.Bytes()
	if bytes.IndexByte(line, '\n') != len(line)-1 {
		t.Fatalf("Encode wrote %d lines, want one:\n%s", bytes.Count(line, []byte("\n")), line)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, line); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), bytes.TrimSuffix(line, []byte("\n"))) {
		t.Fatalf("Encode is not compact:\n%s", line)
	}
	got, err := sim.DecodeEnvelope(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("compact round trip drifted:\n got %+v\nwant %+v", got, env)
	}

	indented, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	old, err := sim.DecodeEnvelope(indented)
	if err != nil {
		t.Fatalf("indented envelope does not decode: %v", err)
	}
	// The opaque payloads keep the whitespace they were read with, so the
	// indented envelope equals the original once re-encoded.
	var again bytes.Buffer
	if err := old.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), line) || !reflect.DeepEqual(old.Spec, env.Spec) || !reflect.DeepEqual(old.Renders, env.Renders) {
		t.Errorf("indented envelope decodes to a different envelope:\n got %s\nwant %s", again.Bytes(), line)
	}
}

// FuzzEnvelopeDecode pins the archive decoder's hostile-input contract
// (seed corpus inline plus the checked-in files under testdata/fuzz/):
// corrupt, truncated or tampered envelopes return an error — never a
// panic, and never a silently misread record — while anything accepted
// must hold a verified seal, be exactly one JSON value (bytes after the
// envelope are refused) and re-encode losslessly. The checked-in files
// are indented, the inline seeds compact: the decoder reads both.
func FuzzEnvelopeDecode(f *testing.F) {
	env := fuzzEnvelope(f)
	var valid bytes.Buffer
	if err := env.Encode(&valid); err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		valid.Bytes(),
		valid.Bytes()[:valid.Len()/2], // truncated mid-object
		bytes.Replace(valid.Bytes(), []byte(`"SHUT"`), []byte(`"DVFS"`), 1), // edited spec, stale seal
		bytes.Replace(valid.Bytes(), []byte(`"version":1`), []byte(`"version":99`), 1),
		[]byte(``),
		[]byte(`{}`),
		[]byte(`null`),
		[]byte(`{"version":1,"spec_hash":"","spec":{}}`),
		[]byte(`{"version":1,"spec_hash":"deadbeef","spec":{"workload":{"kind":"smalljob"}}}`),
		[]byte(`[1,2,3]`),
		[]byte("\x00\x01\x02"),
		[]byte(`{"version":1,"spec_hash":` + "\x00" + `}`),
		append(bytes.Clone(valid.Bytes()), valid.Bytes()...), // two envelopes
		append(bytes.Clone(valid.Bytes()), "garbage"...),     // torn append
		append([]byte("\n\t "), valid.Bytes()...),            // whitespace is not trailing data
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := sim.DecodeEnvelope(data)
		if err != nil {
			return // rejected: exactly what corrupt input should get
		}
		// Accepted input is one JSON value: nothing trails the envelope.
		if !json.Valid(data) {
			t.Fatalf("accepted an envelope followed by other bytes: %q", data)
		}
		// Accepted envelopes hold a verified seal: the spec re-hashes
		// to the claimed address...
		hash, herr := sim.SpecHash(got.Spec)
		if herr != nil || hash != got.SpecHash {
			t.Fatalf("accepted envelope fails its own seal: hash=%q err=%v claimed=%q", hash, herr, got.SpecHash)
		}
		// ...and re-encoding round-trips to an equally valid envelope.
		var buf bytes.Buffer
		if err := got.Encode(&buf); err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		again, err := sim.DecodeEnvelope(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if again.SpecHash != got.SpecHash || again.Version != got.Version {
			t.Fatalf("round trip drifted: %q/%d vs %q/%d", again.SpecHash, again.Version, got.SpecHash, got.Version)
		}
	})
}
