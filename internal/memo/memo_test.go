package memo

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
)

// intCodec is the test value codec: decimal strings.
func intCodec() (func(int) ([]byte, error), func([]byte) (int, error)) {
	enc := func(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil }
	dec := func(b []byte) (int, error) { return strconv.Atoi(string(b)) }
	return enc, dec
}

func TestCacheMissThenHit(t *testing.T) {
	c := New(Config[int]{})
	calls := 0
	compute := func() (int, error) { calls++; return 7, nil }

	v, out, err := c.Do("k", compute)
	if err != nil || v != 7 || out != Miss {
		t.Fatalf("first Do = (%d, %v, %v), want (7, miss, nil)", v, out, err)
	}
	v, out, err = c.Do("k", compute)
	if err != nil || v != 7 || out != Hit {
		t.Fatalf("second Do = (%d, %v, %v), want (7, hit, nil)", v, out, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	ct := c.Counters()
	if ct.Hits != 1 || ct.Misses != 1 || ct.Entries != 1 || ct.Lookups() != 2 {
		t.Fatalf("counters %+v", ct)
	}
	if hr := ct.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", hr)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := New(Config[int]{})
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.Do("k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, out, err := c.Do("k", func() (int, error) { calls++; return 9, nil })
	if err != nil || v != 9 || out != Miss {
		t.Fatalf("retry Do = (%d, %v, %v), want (9, miss, nil)", v, out, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	enc, dec := intCodec()
	c := New(Config[int]{MaxEntries: 2, Encode: enc, Decode: dec})
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(key, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 survived past the 2-entry bound")
	}
	for _, key := range []string{"k1", "k2"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("%s evicted, want resident", key)
		}
	}
	ct := c.Counters()
	if ct.Evictions != 1 || ct.Entries != 2 {
		t.Fatalf("counters %+v, want 1 eviction / 2 entries", ct)
	}
	// k1 and k2 are one decimal digit each.
	if ct.Bytes != 2 {
		t.Fatalf("bytes %d, want 2", ct.Bytes)
	}

	// Touching k1 makes k2 the LRU victim for the next insert.
	if _, _, err := c.Do("k1", func() (int, error) { t.Fatal("k1 recomputed"); return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do("k3", func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k2"); ok {
		t.Fatal("k2 survived; LRU order ignores recency")
	}
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("recently used k1 evicted")
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	enc, dec := intCodec()

	cold := New(Config[int]{Dir: dir, Encode: enc, Decode: dec})
	if _, out, err := cold.Do("k", func() (int, error) { return 41, nil }); err != nil || out != Miss {
		t.Fatalf("cold Do = (%v, %v)", out, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "k.memo")); err != nil {
		t.Fatalf("disk entry not written: %v", err)
	}

	// A fresh cache over the same dir serves from disk without computing.
	warm := New(Config[int]{Dir: dir, Encode: enc, Decode: dec})
	v, out, err := warm.Do("k", func() (int, error) { t.Fatal("computed despite disk entry"); return 0, nil })
	if err != nil || v != 41 || out != DiskHit {
		t.Fatalf("warm Do = (%d, %v, %v), want (41, disk-hit, nil)", v, out, err)
	}
	// Promoted: the next lookup is a memory hit.
	if _, out, _ := warm.Do("k", nil); out != Hit {
		t.Fatalf("post-promotion outcome %v, want hit", out)
	}
	ct := warm.Counters()
	if ct.DiskHits != 1 || ct.Hits != 1 || ct.Misses != 0 {
		t.Fatalf("counters %+v", ct)
	}
}

func TestCacheDiskCorruptionFallsBackToMiss(t *testing.T) {
	enc, dec := intCodec()
	mangle := []struct {
		name string
		edit func(path string) error
	}{
		{"truncated", func(p string) error {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, b[:len(b)-1], 0o644)
		}},
		{"flipped-payload", func(p string) error {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			b[len(b)-1] ^= 0xFF
			return os.WriteFile(p, b, 0o644)
		}},
		{"bad-magic", func(p string) error {
			return os.WriteFile(p, []byte("NOTMEMO0garbage"), 0o644)
		}},
		{"empty", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}},
	}
	for _, m := range mangle {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			cold := New(Config[int]{Dir: dir, Encode: enc, Decode: dec})
			if _, _, err := cold.Do("k", func() (int, error) { return 5, nil }); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "k.memo")
			if err := m.edit(path); err != nil {
				t.Fatal(err)
			}

			warm := New(Config[int]{Dir: dir, Encode: enc, Decode: dec})
			v, out, err := warm.Do("k", func() (int, error) { return 5, nil })
			if err != nil || v != 5 || out != Miss {
				t.Fatalf("Do over corrupt entry = (%d, %v, %v), want recompute miss", v, out, err)
			}
			if warm.Counters().Corrupt != 1 {
				t.Fatalf("corrupt counter %d, want 1", warm.Counters().Corrupt)
			}
			// The recompute rewrote a valid entry over the corrupt one.
			next := New(Config[int]{Dir: dir, Encode: enc, Decode: dec})
			if _, out, _ := next.Do("k", func() (int, error) { return 5, nil }); out != DiskHit {
				t.Fatalf("entry not repaired: outcome %v", out)
			}
		})
	}
}

// TestCacheDecodeRejectionIsCorruption: a framed-but-undecodable payload
// (e.g. written by a different value schema) counts as corrupt, not error.
func TestCacheDecodeRejectionIsCorruption(t *testing.T) {
	dir := t.TempDir()
	enc, dec := intCodec()
	path := filepath.Join(dir, "k.memo")
	if err := os.WriteFile(path, frame([]byte("not-a-number")), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config[int]{Dir: dir, Encode: enc, Decode: dec})
	v, out, err := c.Do("k", func() (int, error) { return 3, nil })
	if err != nil || v != 3 || out != Miss {
		t.Fatalf("Do = (%d, %v, %v), want recompute miss", v, out, err)
	}
	if c.Counters().Corrupt != 1 {
		t.Fatalf("corrupt counter %d, want 1", c.Counters().Corrupt)
	}
}

func TestCacheInflightDedup(t *testing.T) {
	c := New(Config[int]{})
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	executions := 0

	const waiters = 8
	results := make(chan Outcome, waiters+1)
	var wg sync.WaitGroup
	wg.Add(waiters + 1)
	for i := 0; i <= waiters; i++ {
		go func() {
			defer wg.Done()
			v, out, err := c.Do("k", func() (int, error) {
				executions++ // leader-only; flight serializes the fn
				once.Do(func() { close(entered) })
				<-gate
				return 13, nil
			})
			if err != nil || v != 13 {
				t.Errorf("Do = (%d, %v)", v, err)
			}
			results <- out
		}()
	}
	<-entered
	close(gate)
	wg.Wait()
	close(results)

	var misses, dedups, hits int
	for out := range results {
		switch out {
		case Miss:
			misses++
		case Dedup:
			dedups++
		case Hit:
			hits++
		}
	}
	if executions != 1 {
		t.Fatalf("compute executed %d times, want 1", executions)
	}
	if misses != 1 {
		t.Fatalf("%d misses, want exactly 1 (the leader)", misses)
	}
	if dedups+hits != waiters {
		t.Fatalf("misses=%d dedups=%d hits=%d across %d callers", misses, dedups, hits, waiters+1)
	}
	ct := c.Counters()
	if ct.Misses != 1 || ct.InflightDedup != uint64(dedups) || ct.Hits != uint64(hits) {
		t.Fatalf("counters %+v vs observed misses=1 dedups=%d hits=%d", ct, dedups, hits)
	}
}

func TestCachePanicsOnDirWithoutCodec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with Dir but no codec did not panic")
		}
	}()
	New(Config[int]{Dir: t.TempDir()})
}

func TestCacheStatsSnapshot(t *testing.T) {
	enc, dec := intCodec()
	c := New(Config[int]{Encode: enc, Decode: dec})
	if _, _, err := c.Do("k", func() (int, error) { return 123, nil }); err != nil {
		t.Fatal(err)
	}
	c.Do("k", nil)
	snap := c.StatsSnapshot()
	want := map[string]uint64{
		"memo.hits":           1,
		"memo.misses":         1,
		"memo.inflight_dedup": 0,
		"memo.evictions":      0,
	}
	for name, v := range want {
		if snap.Counters[name] != v {
			t.Fatalf("snapshot %s = %d, want %d (snapshot %+v)", name, snap.Counters[name], v, snap)
		}
	}
	g, ok := snap.Gauges["memo.bytes"]
	if !ok {
		t.Fatal("snapshot missing memo.bytes gauge")
	}
	if g.Cur != 3 { // "123"
		t.Fatalf("memo.bytes = %v, want 3", g.Cur)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), make([]byte, 4096)} {
		got, ok := unframe(frame(payload))
		if !ok || string(got) != string(payload) {
			t.Fatalf("frame round-trip failed for %d-byte payload", len(payload))
		}
	}
	if _, ok := unframe(nil); ok {
		t.Fatal("unframe accepted empty input")
	}
}

// FuzzDiskEntry feeds arbitrary bytes to the disk tier as an entry file:
// no input panics the cache. An entry it accepts is a disk hit carrying
// the framed payload's value; an entry it rejects counts as Corrupt plus
// a miss, and its file is gone before the value is recomputed.
func FuzzDiskEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(diskMagic))
	f.Add(frame([]byte("42")))
	f.Add(frame([]byte("not a number")))
	good := frame([]byte("7"))
	f.Add(good[:len(good)-1])
	f.Add(append(good, '0'))
	f.Fuzz(func(t *testing.T, data []byte) {
		enc, dec := intCodec()
		c := New(Config[int]{Dir: t.TempDir(), Encode: enc, Decode: dec})
		const key = "k"
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		removed := false
		v, out, err := c.Do(key, func() (int, error) {
			_, err := os.Stat(c.path(key))
			removed = os.IsNotExist(err)
			return -1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ct := c.Counters()
		if out == DiskHit {
			payload, ok := unframe(data)
			if !ok {
				t.Fatal("disk hit on an entry that does not unframe")
			}
			if want, err := dec(payload); err != nil || v != want {
				t.Fatalf("disk hit %d, payload decodes to %d (err %v)", v, want, err)
			}
			if ct.Corrupt != 0 || ct.Misses != 0 {
				t.Fatalf("accepted entry counted %+v", ct)
			}
			return
		}
		if out != Miss || v != -1 || ct.Corrupt != 1 || ct.Misses != 1 {
			t.Fatalf("rejected entry: outcome %v value %d counters %+v, want one corrupt miss", out, v, ct)
		}
		if !removed {
			t.Fatal("rejected entry file still present when the value was recomputed")
		}
	})
}
