package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Run-result serialization: the stable encoding behind the memo cache's
// disk tier (internal/memo) and any other consumer that persists full
// QueryResults — including RunStats with its Metrics histogram snapshot,
// Reliability counter block, and per-bank accounting.
//
// The format is versioned JSON. JSON is the right stability/readability
// trade here: every field of QueryResult/RunStats is exported and
// JSON-clean (finite floats only — stats.Gauge rejects NaN/Inf by
// contract), Go marshals map keys in sorted order so the bytes are
// deterministic, and float64 values round-trip bit-exactly (Go emits the
// shortest representation that parses back to the same value). A decoded
// result is therefore semantically identical to the encoded one: every
// derived figure value (speedups, energy ratios, table cells) is
// bit-identical, which is what lets a warm cache reproduce byte-identical
// figure output.
//
// resultCodecVersion only covers the *encoding*; simulator-semantics
// changes are the memo layer's business (memo.SchemaVersion).
const resultCodecVersion = 1

// codecEnvelope wraps the payload with its format version.
type codecEnvelope struct {
	Version int          `json:"v"`
	Result  *QueryResult `json:"result"`
}

// EncodeResult serializes a run result to its stable byte form.
// Encoding is deterministic: equal results produce equal bytes.
func EncodeResult(r *QueryResult) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("sim: cannot encode nil result")
	}
	return json.Marshal(codecEnvelope{Version: resultCodecVersion, Result: r})
}

// DecodeResult reverses EncodeResult. It rejects unknown versions and
// malformed payloads with an error (the memo disk tier converts that
// into a cache miss).
func DecodeResult(b []byte) (*QueryResult, error) {
	var env codecEnvelope
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("sim: decode result: %w", err)
	}
	if env.Version != resultCodecVersion {
		return nil, fmt.Errorf("sim: result codec version %d, want %d", env.Version, resultCodecVersion)
	}
	if env.Result == nil {
		return nil, fmt.Errorf("sim: decoded envelope carries no result")
	}
	return env.Result, nil
}
