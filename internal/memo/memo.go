// Package memo is a content-addressed, deterministic run-result cache
// with in-flight deduplication — the "same design × config ×
// seed ⇒ cached RunStats" layer the figure, sweep, and reliability
// pipelines and the samd daemon multiplex onto.
//
// Keys are Fingerprint sums: canonical hashes of everything that
// determines a run's outcome, salted with SchemaVersion so a simulator-
// semantics change invalidates every prior entry. Values are immutable by
// contract — callers on a hit receive the same value the miss computed,
// so cached values must never be mutated (the core pipelines only read
// run results).
//
// Two tiers: a bounded in-process LRU serves concurrent sweep workers
// (with a runner.Group so two workers needing the same point run it
// once), and an optional disk tier (Config.Dir) makes a warm re-run of a
// whole figure pipeline near-instant. Disk entries are checksummed;
// corruption or truncation falls back to a miss, never an error.
package memo

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sam/internal/runner"
	"sam/internal/stats"
)

// DefaultMaxEntries bounds the in-process tier when Config.MaxEntries is
// zero. Run results are kilobytes, so the default keeps the resident set
// in the tens of megabytes even for campaign-scale sweeps.
const DefaultMaxEntries = 8192

// Config configures a Cache.
type Config[V any] struct {
	// MaxEntries bounds the in-process LRU tier; 0 means
	// DefaultMaxEntries, negative means unbounded.
	MaxEntries int
	// Dir, when non-empty, enables the disk tier: every computed value is
	// persisted under <Dir>/<key>.memo and survives the process. The
	// directory is created on first write.
	Dir string
	// Encode/Decode serialize values for the disk tier and for byte
	// accounting (memo.bytes). Encode is required when Dir is set; with
	// no encoder the cache is memory-only and memo.bytes stays 0.
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
}

// Outcome classifies how Do satisfied a lookup.
type Outcome int

// Outcomes.
const (
	// Miss: the value was computed by this call.
	Miss Outcome = iota
	// Hit: served from the in-process tier.
	Hit
	// DiskHit: served from the disk tier (and promoted to memory).
	DiskHit
	// Dedup: coalesced onto a concurrent in-flight computation.
	Dedup
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case DiskHit:
		return "disk-hit"
	case Dedup:
		return "dedup"
	default:
		return "miss"
	}
}

// Counters is a point-in-time reading of the cache's instruments.
type Counters struct {
	Hits          uint64 // in-process tier hits
	DiskHits      uint64 // disk tier hits (promoted to memory)
	Misses        uint64 // computations actually executed
	InflightDedup uint64 // lookups coalesced onto an in-flight computation
	Evictions     uint64 // LRU entries dropped for capacity
	Corrupt       uint64 // disk entries rejected (bad magic/checksum/decode)
	DiskErrors    uint64 // disk writes that failed (cache stays correct)
	Bytes         int64  // encoded bytes resident in the in-process tier
	Entries       int    // entries resident in the in-process tier
}

// Lookups is the total number of Do calls the counters describe.
func (c Counters) Lookups() uint64 {
	return c.Hits + c.DiskHits + c.Misses + c.InflightDedup
}

// HitRate is the fraction of lookups served without computing (memory,
// disk, or in-flight coalescing), in [0,1]; 0 with no lookups.
func (c Counters) HitRate() float64 {
	l := c.Lookups()
	if l == 0 {
		return 0
	}
	return float64(l-c.Misses) / float64(l)
}

// String renders the one-line summary the CLIs print.
func (c Counters) String() string {
	return fmt.Sprintf("%d hits, %d disk hits, %d misses, %d inflight-dedup, %d entries (%d bytes)",
		c.Hits, c.DiskHits, c.Misses, c.InflightDedup, c.Entries, c.Bytes)
}

// entry is one resident value.
type entry[V any] struct {
	key  string
	val  V
	size int64
}

// computed carries the leader's value and how it obtained it.
type computed[V any] struct {
	val V
	out Outcome
}

// Cache is the two-tier memo cache. All methods are goroutine-safe.
type Cache[V any] struct {
	cfg Config[V]

	mu    sync.Mutex
	ll    *list.List               // front = most recent
	byKey map[string]*list.Element // key -> *entry
	bytes int64

	// Instruments live in an internal/stats registry so snapshots slot
	// straight into -stats-json and -metrics-dir dumps. Updates happen
	// under mu (registry instruments are not goroutine-safe themselves).
	reg      *stats.Registry
	hits     *stats.Counter
	diskHits *stats.Counter
	misses   *stats.Counter
	dedup    *stats.Counter
	evict    *stats.Counter
	corrupt  *stats.Counter
	diskErrs *stats.Counter
	bytesG   *stats.Gauge

	inflight runner.Group[computed[V]]
}

// New builds a cache. It panics if Dir is set without an Encode/Decode
// pair — a misconfiguration, not a runtime condition.
func New[V any](cfg Config[V]) *Cache[V] {
	if cfg.Dir != "" && (cfg.Encode == nil || cfg.Decode == nil) {
		panic("memo: Config.Dir requires Encode and Decode")
	}
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	c := &Cache[V]{
		cfg:   cfg,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
		reg:   stats.NewRegistry(),
	}
	c.hits = c.reg.Counter("memo.hits")
	c.diskHits = c.reg.Counter("memo.disk_hits")
	c.misses = c.reg.Counter("memo.misses")
	c.dedup = c.reg.Counter("memo.inflight_dedup")
	c.evict = c.reg.Counter("memo.evictions")
	c.corrupt = c.reg.Counter("memo.corrupt_entries")
	c.diskErrs = c.reg.Counter("memo.disk_errors")
	c.bytesG = c.reg.Gauge("memo.bytes")
	c.bytesG.Set(0)
	return c
}

// Do returns the value for key, computing it with compute on a full miss.
// Concurrent Do calls with the same key coalesce onto one computation; a
// coalesced caller gives up with ctx's error once ctx is done, and gets an
// error if the computation panics. Errors are never cached: a failed key
// recomputes on the next lookup.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, Outcome, error) {
	if v, ok := c.lookup(key); ok {
		return v, Hit, nil
	}
	res, shared, err := c.inflight.Do(ctx, key, func() (computed[V], error) {
		// The leader frees the key once it is done: a later Do finds the
		// value in memory, or computes again after an error.
		defer c.inflight.Forget(key)
		// Re-check memory, since a previous leader may have finished
		// between our lookup miss and claiming the key, then disk.
		if v, out, ok := c.Lookup(key); ok {
			return computed[V]{v, out}, nil
		}
		v, err := compute()
		if err != nil {
			return computed[V]{}, err
		}
		enc, err := c.encode(v)
		if err != nil {
			return computed[V]{}, fmt.Errorf("memo: encode %s: %w", key, err)
		}
		c.insert(key, v, enc, true)
		c.count(c.misses)
		return computed[V]{v, Miss}, nil
	})
	if err == nil && shared {
		c.count(c.dedup)
		res.out = Dedup
	}
	// On an error res is zero: the value is zero and the outcome Miss.
	return res.val, res.out, err
}

// Lookup probes both tiers without computing: a memory hit counts as
// Hit, a disk hit is promoted and counted as DiskHit, and an absent key
// returns ok=false WITHOUT counting a miss — the caller is expected to
// follow up with Do, which accounts for the computation. This is the
// admission-time probe the samd daemon uses to serve a repeated job
// submission instantly instead of occupying a queue slot.
func (c *Cache[V]) Lookup(key string) (V, Outcome, bool) {
	if v, ok := c.lookup(key); ok {
		return v, Hit, true
	}
	if v, enc, ok := c.diskLoad(key); ok {
		c.insert(key, v, enc, false)
		c.count(c.diskHits)
		return v, DiskHit, true
	}
	var zero V
	return zero, Miss, false
}

// Counters reads the instruments.
func (c *Cache[V]) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{
		Hits:          c.hits.Value(),
		DiskHits:      c.diskHits.Value(),
		Misses:        c.misses.Value(),
		InflightDedup: c.dedup.Value(),
		Evictions:     c.evict.Value(),
		Corrupt:       c.corrupt.Value(),
		DiskErrors:    c.diskErrs.Value(),
		Bytes:         c.bytes,
		Entries:       c.ll.Len(),
	}
}

// StatsSnapshot freezes the instruments as an internal/stats snapshot
// (counter names memo.hits, memo.misses, memo.inflight_dedup, … and the
// memo.bytes gauge), ready to merge into run reports and metrics dumps.
func (c *Cache[V]) StatsSnapshot() *stats.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.Snapshot()
}

// count increments one of the cache's counters.
func (c *Cache[V]) count(ctr *stats.Counter) {
	c.mu.Lock()
	ctr.Inc()
	c.mu.Unlock()
}

// lookup serves the in-process tier, counting a hit.
func (c *Cache[V]) lookup(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// encode serializes v if an encoder is configured.
func (c *Cache[V]) encode(v V) ([]byte, error) {
	if c.cfg.Encode == nil {
		return nil, nil
	}
	return c.cfg.Encode(v)
}

// insert stores v in the memory tier (evicting LRU entries beyond the
// bound) and, when persist is set, writes the disk entry.
func (c *Cache[V]) insert(key string, v V, enc []byte, persist bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		// Raced insert of the same key: keep the resident value.
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	e := &entry[V]{key: key, val: v, size: int64(len(enc))}
	c.byKey[key] = c.ll.PushFront(e)
	c.bytes += e.size
	for c.cfg.MaxEntries > 0 && c.ll.Len() > c.cfg.MaxEntries {
		back := c.ll.Back()
		old := back.Value.(*entry[V])
		c.ll.Remove(back)
		delete(c.byKey, old.key)
		c.bytes -= old.size
		c.evict.Inc()
	}
	c.bytesG.Set(float64(c.bytes))
	c.mu.Unlock()

	if persist && c.cfg.Dir != "" {
		if err := c.diskStore(key, enc); err != nil {
			c.count(c.diskErrs)
		}
	}
}

// Disk-entry framing: magic, payload checksum, payload length, payload.
// Anything that does not parse — short file, wrong magic, bad checksum,
// decoder rejection — is a miss (and the bad file is removed), never an
// error surfaced to the sweep.
const diskMagic = "SAMMEMO1"

func (c *Cache[V]) path(key string) string {
	return filepath.Join(c.cfg.Dir, key+".memo")
}

func frame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(diskMagic)+len(sum)+8+len(payload))
	out = append(out, diskMagic...)
	out = append(out, sum[:]...)
	var ln [8]byte
	binary.BigEndian.PutUint64(ln[:], uint64(len(payload)))
	out = append(out, ln[:]...)
	return append(out, payload...)
}

// unframe validates the on-disk framing and returns the payload.
func unframe(b []byte) ([]byte, bool) {
	head := len(diskMagic) + sha256.Size + 8
	if len(b) < head || string(b[:len(diskMagic)]) != diskMagic {
		return nil, false
	}
	var sum [sha256.Size]byte
	copy(sum[:], b[len(diskMagic):])
	ln := binary.BigEndian.Uint64(b[len(diskMagic)+sha256.Size : head])
	payload := b[head:]
	if uint64(len(payload)) != ln || sha256.Sum256(payload) != sum {
		return nil, false
	}
	return payload, true
}

// diskLoad reads and validates a disk entry; any defect counts as corrupt
// and falls back to a miss.
func (c *Cache[V]) diskLoad(key string) (V, []byte, bool) {
	var zero V
	if c.cfg.Dir == "" {
		return zero, nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return zero, nil, false // absent: a plain miss, not corruption
	}
	payload, ok := unframe(b)
	if !ok {
		c.rejectDiskEntry(key)
		return zero, nil, false
	}
	v, err := c.cfg.Decode(payload)
	if err != nil {
		c.rejectDiskEntry(key)
		return zero, nil, false
	}
	return v, payload, true
}

func (c *Cache[V]) rejectDiskEntry(key string) {
	os.Remove(c.path(key))
	c.count(c.corrupt)
}

// diskStore writes the entry atomically (temp file + rename) so a
// crashed or concurrent writer can never leave a half-entry behind.
func (c *Cache[V]) diskStore(key string, payload []byte) error {
	if err := os.MkdirAll(c.cfg.Dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.cfg.Dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(frame(payload)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
