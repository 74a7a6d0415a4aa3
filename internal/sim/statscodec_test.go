package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sam/internal/design"
)

// codecProbeResult runs a fault-injected query so the result exercises
// every optional block the disk format must carry: non-empty Metrics
// histograms, a Reliability counter block, retry/poison controller
// counters, and nonzero fault-adjudication stats.
func codecProbeResult(t testing.TB) *QueryResult {
	t.Helper()
	s := testSystem(design.SAMEn, 256, 256, false)
	s.Faults = deadChip(7, 42)
	r, err := s.RunQuery("SELECT SUM(f9) FROM Ta WHERE f10 > x", sel25())
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Metrics == nil || len(r.Stats.Metrics.Histograms) == 0 {
		t.Fatal("probe run carries no metrics histograms; codec test would be vacuous")
	}
	if r.Stats.Reliability == nil || r.Stats.Reliability.Injected == 0 {
		t.Fatal("probe run carries no reliability block; codec test would be vacuous")
	}
	return r
}

func TestResultCodecRoundTrip(t *testing.T) {
	r := codecProbeResult(t)
	enc, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded result must be fully equivalent — including the nested
	// Metrics histogram snapshot and the Reliability counters, which the
	// figure pipelines and the reliability campaign read back out. (The
	// whole-snapshot comparison goes through maps that are populated;
	// DeepEqual on the snapshot itself would trip over omitempty turning
	// an empty Gauges map into a nil one — a distinction the encoding
	// correctly erases.)
	if !reflect.DeepEqual(dec.Stats.Metrics.Histograms, r.Stats.Metrics.Histograms) {
		t.Fatalf("metrics histograms did not round-trip:\n got %+v\nwant %+v",
			dec.Stats.Metrics.Histograms, r.Stats.Metrics.Histograms)
	}
	if !reflect.DeepEqual(dec.Stats.Metrics.Counters, r.Stats.Metrics.Counters) {
		t.Fatal("metrics counters did not round-trip")
	}
	if !reflect.DeepEqual(dec.Stats.Reliability, r.Stats.Reliability) {
		t.Fatalf("reliability block did not round-trip:\n got %+v\nwant %+v", dec.Stats.Reliability, r.Stats.Reliability)
	}
	if dec.Rows != r.Rows || dec.ProjChecks != r.ProjChecks || dec.ArithChecks != r.ArithChecks {
		t.Fatal("functional outputs did not round-trip")
	}
	if !reflect.DeepEqual(dec.Aggregates, r.Aggregates) {
		t.Fatal("aggregates did not round-trip")
	}
	if eq, err := ResultsEquivalent(dec, r); err != nil || !eq {
		t.Fatalf("ResultsEquivalent(decoded, original) = (%v, %v)", eq, err)
	}
	// Determinism: re-encoding either side yields identical bytes — the
	// property that makes warm-cache figure output byte-identical.
	enc2, err := EncodeResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("re-encoding a decoded result changed the bytes")
	}
}

func TestResultCodecGroupedRoundTrip(t *testing.T) {
	s := testSystem(design.Baseline, 256, 512, false)
	r, err := s.RunQuery("SELECT COUNT(*), SUM(f1) FROM Tb GROUP BY f10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) == 0 {
		t.Fatal("probe run carries no groups")
	}
	enc, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Groups, r.Groups) {
		t.Fatal("group-by results did not round-trip")
	}
}

func TestResultCodecRejections(t *testing.T) {
	if _, err := EncodeResult(nil); err == nil {
		t.Fatal("EncodeResult(nil) succeeded")
	}
	r := codecProbeResult(t)
	enc, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(nil); err == nil {
		t.Fatal("DecodeResult(nil) succeeded")
	}
	if _, err := DecodeResult(enc[:len(enc)/2]); err == nil {
		t.Fatal("decoding a truncated payload succeeded")
	}
	// A future-versioned envelope must be rejected, not misread.
	future := bytes.Replace(enc, []byte(`{"v":1,`), []byte(`{"v":2,`), 1)
	if bytes.Equal(future, enc) {
		t.Fatal("version field not found in envelope")
	}
	if _, err := DecodeResult(future); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: err = %v, want version mismatch", err)
	}
	if _, err := DecodeResult([]byte(`{"v":1}`)); err == nil {
		t.Fatal("envelope without result succeeded")
	}
}

// FuzzDecodeResult fuzzes the memo disk tier's payload decoder: no input
// panics it, and an input it accepts re-encodes to bytes that decode and
// re-encode to themselves.
func FuzzDecodeResult(f *testing.F) {
	enc, err := EncodeResult(codecProbeResult(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte(`{"v":1,"result":{}}`))
	f.Add([]byte(`{"v":1,"result":{"Rows":3,"Aggregates":[1.5]}} trailing`))
	f.Add([]byte(`{"v":1}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResult(b)
		if err != nil {
			return
		}
		enc1, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		r2, err := DecodeResult(enc1)
		if err != nil {
			t.Fatalf("re-encoded result rejected: %v", err)
		}
		enc2, err := EncodeResult(r2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encoding is unstable:\n%s\n%s", enc1, enc2)
		}
	})
}
