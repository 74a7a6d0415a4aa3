package sim

import (
	"bytes"
	"testing"

	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/sql"
)

// TestRunPlanStreamsChunks checks RunPlan's streamed log across chunk
// boundaries: an UPDATE whose log spans several chunks (line fills,
// gathers and strided writebacks) runs twice back to back on one warm
// system, and each run encodes byte-equal to RecordPlan plus Replay of the
// same run on an identically prepared system. So does a replay of the
// recorded chunks joined into one, which decodes across no chunk boundary
// and so pins the decoder state carried from chunk to chunk. The caches
// are shrunk below the table so the second run misses as much as the
// first.
func TestRunPlanStreamsChunks(t *testing.T) {
	const records = 1 << 17
	prepare := func() *System {
		s := NewSystem(design.New(design.SAMEn, design.Options{}))
		s.Caches = CacheParams{L1Bytes: 4 << 10, L2Bytes: 8 << 10, LLCBytes: 32 << 10, Ways: 8}
		s.reset()
		s.AddTable(imdb.NewTable(imdb.Tb(records), 0x5EED), false)
		return s
	}
	stmt, err := sql.Parse("UPDATE Tb SET f3 = x WHERE f10 > y")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sql.Compile(stmt, sql.Params{"x": 5, "y": 0})
	if err != nil {
		t.Fatal(err)
	}
	streamed, recorded, joined := prepare(), prepare(), prepare()
	for run := 1; run <= 2; run++ {
		got, err := streamed.RunPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		v := ClockVariantOf(recorded.Design)
		l, err := recorded.RecordPlan(plan, v)
		if err != nil {
			t.Fatal(err)
		}
		// A streamed log cuts its chunks where a kept one does.
		if n := len(l.chunks); n < 3 {
			t.Fatalf("run %d: the log spans %d chunks, want at least 3", run, n)
		}
		if got.Rows == 0 {
			t.Fatalf("run %d: the UPDATE matched no rows", run)
		}
		want := mustEncode(t, recorded.Replay(l, v))
		if !bytes.Equal(mustEncode(t, got), want) {
			t.Errorf("run %d: the streamed run differs from record plus replay", run)
		}
		one := *l
		one.chunks = [][]byte{bytes.Join(l.chunks, nil)}
		if !bytes.Equal(mustEncode(t, joined.Replay(&one, v)), want) {
			t.Errorf("run %d: the replay of the joined chunks differs from the chunked replay", run)
		}
	}
}

func mustEncode(t *testing.T, r *QueryResult) []byte {
	t.Helper()
	b, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
