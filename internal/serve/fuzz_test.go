package serve

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSubmitRequest fuzzes the job-submission decoder — the daemon's
// only hostile-input surface. The contract: any byte stream either
// parses into a request that re-validates cleanly (and has a stable
// content key), or is rejected with a RequestError (a 400) — never a
// panic, never an internal error class, never an accepted-but-invalid
// job.
func FuzzSubmitRequest(f *testing.F) {
	seeds := []string{
		// Valid submissions, one per kind.
		`{"kind":"bench","tenant":"alice","bench":{"design":"baseline","query":"Q1"}}`,
		`{"kind":"bench","tenant":"bob","priority":"high","workload":{"small":true,"seed":7},"bench":{"design":"SAM-en","query":"Qs3","gran":8,"fault_rate":0.001,"fault_seed":42,"fault_retries":3}}`,
		`{"kind":"figure","tenant":"ci","workload":{"ta":512,"tb":2048},"figure":{"id":"fig12"}}`,
		`{"kind":"sweep","tenant":"t","sweep":{"query":"arith","selectivities":[0.01,0.5],"projectivities":[1,16],"records":2048}}`,
		`{"kind":"reliability","tenant":"t","reliability":{"seed":99,"rates":[0.001],"max_retries":2}}`,
		// Defect shapes the validator must reject.
		``,
		`{`,
		`null`,
		`[]`,
		`"bench"`,
		`{"kind":"bench"}`,
		`{"kind":"bench","tenant":"t","bench":{"design":"nope","query":"Q1"}}`,
		`{"kind":"bench","tenant":"t","bench":{"design":"baseline","query":"Q1","fault_rate":NaN}}`,
		`{"kind":"bench","tenant":"t","bench":{"design":"baseline","query":"Q1","fault_rate":1e999}}`,
		`{"kind":"bench","tenant":"t","workload":{"seed":-1},"bench":{"design":"baseline","query":"Q1"}}`,
		`{"kind":"sweep","tenant":"t","sweep":{"query":"arith","selectivities":[1e308],"projectivities":[1]}}`,
		`{"kind":"sweep","tenant":"t","sweep":{"query":"arith","selectivities":[1],"projectivities":[1],"record_bytes":40}}`,
		`{"kind":"figure","tenant":"t","figure":{"id":"fig12"}} trailing`,
		`{"kind":"figure","tenant":"t","figure":{"id":"fig12"},"unknown_field":true}`,
		`{"kind":"reliability","tenant":"t","reliability":{"rates":[-0.5]}}`,
		`{"kind":"bench","tenant":"../../etc","bench":{"design":"baseline","query":"Q1"}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseSubmit(bytes.NewReader(data))
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("rejection is not a RequestError (would 500, want 400): %v", err)
			}
			return
		}
		// Accepted submissions must be internally consistent: they
		// re-validate, carry a stable non-empty content key, and render a
		// label without panicking.
		if err := req.Validate(); err != nil {
			t.Fatalf("parsed request fails re-validation: %v", err)
		}
		k1, k2 := req.Key(), req.Key()
		if k1 == "" || k1 != k2 {
			t.Fatalf("unstable content key: %q vs %q", k1, k2)
		}
		_ = jobLabel(req)
		w := req.workload()
		if w.TaRecords <= 0 || w.TbRecords <= 0 {
			t.Fatalf("resolved workload degenerate: %+v", w)
		}
	})
}
