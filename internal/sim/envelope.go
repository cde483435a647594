package sim

import (
	"encoding/json"
	"fmt"
	"io"
)

// EnvelopeVersion is the current archive-envelope format version.
// Decoders reject versions they do not know — an archive written by a
// future format is an error, never a silently misread file.
const EnvelopeVersion = 1

// MaxEnvelopeBytes bounds an archive file a reader loads to decode.
// Archive files are written by the service itself and top out well
// under this; the bound keeps a corrupt or hostile file from ballooning
// memory.
const MaxEnvelopeBytes = 64 << 20

// Envelope is the versioned on-disk form of one archived run: the
// normalized spec with its content address, plus the layers above's
// payloads carried opaquely — the service stores its run metadata in
// Meta and a tsdb telemetry snapshot in Telemetry without this package
// knowing either schema. Renders holds the sink-pipeline encodings of
// the run's report keyed by sink name ("json", "csv", "ascii"): reports
// embed live engine state and do not round-trip through JSON, so the
// archive persists what every consumer actually reads — the rendered
// forms — and a restored run serves them byte-identically.
type Envelope struct {
	Version  int     `json:"version"`
	SpecHash string  `json:"spec_hash"`
	Spec     RunSpec `json:"spec"`
	// Renders maps sink names to the report rendered through that sink.
	Renders map[string][]byte `json:"renders,omitempty"`
	// Meta is the archiving layer's run metadata, opaque here.
	Meta json.RawMessage `json:"meta,omitempty"`
	// Telemetry is the run's downsampled telemetry snapshot, opaque
	// here.
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
}

// NewEnvelope stamps the current version and the spec's content address
// onto an envelope for the given spec.
func NewEnvelope(spec RunSpec) (Envelope, error) {
	hash, err := SpecHash(spec)
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{Version: EnvelopeVersion, SpecHash: hash, Spec: spec}, nil
}

// Encode writes the envelope as one line of compact JSON after checking
// it is well-formed (known version, spec hash matching the spec) — a bad
// envelope must fail at write time, not poison the archive for every
// later reader. Indentation would nearly double the bytes every archive
// read decodes; DecodeEnvelope reads indented envelopes all the same.
func (e Envelope) Encode(w io.Writer) error {
	if err := e.check(); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(e)
}

// DecodeEnvelope decodes one envelope from data, verifying version and
// content address. Corrupt, truncated or tampered input returns an
// error; the decoder never panics (the archive fuzz target pins this).
// The spec-hash check recomputes the address from the decoded spec, so
// an envelope whose spec was edited in place no longer matches its
// claimed hash and is rejected — the archive's integrity seal. data is
// exactly one JSON value, surrounding whitespace aside: what Encode
// writes is one value and a newline, and bytes after the value — a
// second envelope, a torn append — are an error, not ignored.
func DecodeEnvelope(data []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return Envelope{}, fmt.Errorf("sim: decoding archive envelope: %w", err)
	}
	if err := e.check(); err != nil {
		return Envelope{}, err
	}
	return e, nil
}

// check validates the envelope's seal: version and content address.
func (e Envelope) check() error {
	if e.Version != EnvelopeVersion {
		return fmt.Errorf("sim: archive envelope version %d, this build reads %d", e.Version, EnvelopeVersion)
	}
	hash, err := SpecHash(e.Spec)
	if err != nil {
		return fmt.Errorf("sim: archive envelope spec does not hash: %w", err)
	}
	if e.SpecHash != hash {
		return fmt.Errorf("sim: archive envelope spec_hash %.12s does not match its spec (%.12s): corrupt or edited archive", e.SpecHash, hash)
	}
	return nil
}
