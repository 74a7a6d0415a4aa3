package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// SchemaVersion is the cache-invalidation salt folded into every
// fingerprint. It must be bumped whenever the *meaning* of a cached run
// changes — any simulator-semantics change that makes an old RunStats
// wrong for the same inputs: timing-model edits, scheduler policy
// changes, power-model constants, workload generation, ECC adjudication.
// Structural changes that provably preserve behaviour (the frozen-
// scheduler 1000-mix differential and the frozen multi-channel golden
// are the tripwires that prove it) do not require a bump.
//
// TestMemoSaltTripwire in internal/core pins (SchemaVersion, probe-run
// digest) as a golden pair: changing simulator output without bumping
// this constant fails CI.
const SchemaVersion = "sam-memo-v1"

// Fingerprint accumulates a canonical, collision-resistant encoding of
// the fields that determine a run's outcome and reduces them to a cache
// key. Every field is written as (type tag, name length, name, value)
// with fixed-width big-endian numbers, so two different field sequences
// can never serialize to the same byte stream — a single-field mutation
// always changes the key, and there is no concatenation ambiguity
// ("ab"+"c" vs "a"+"bc").
//
// A Fingerprint is single-use: build, then Sum.
type Fingerprint struct {
	h hash.Hash
}

// Field type tags. Distinct per Go type so that, e.g., U64(1) and I64(1)
// never collide.
const (
	tagString byte = iota + 1
	tagU64
	tagI64
	tagF64
	tagBool
)

// NewFingerprint starts a fingerprint salted with SchemaVersion plus the
// caller's salt (typically a shape discriminator like "bench" / "sweep").
func NewFingerprint(salt string) *Fingerprint {
	f := &Fingerprint{h: sha256.New()}
	f.writeHeader(tagString, "schema")
	f.writeStr(SchemaVersion)
	f.writeHeader(tagString, "salt")
	f.writeStr(salt)
	return f
}

func (f *Fingerprint) writeHeader(tag byte, name string) {
	var b [5]byte
	b[0] = tag
	binary.BigEndian.PutUint32(b[1:], uint32(len(name)))
	f.h.Write(b[:])
	f.h.Write([]byte(name))
}

func (f *Fingerprint) writeStr(v string) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(len(v)))
	f.h.Write(b[:])
	f.h.Write([]byte(v))
}

func (f *Fingerprint) writeU64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

// Str adds a named string field.
func (f *Fingerprint) Str(name, v string) *Fingerprint {
	f.writeHeader(tagString, name)
	f.writeStr(v)
	return f
}

// U64 adds a named unsigned field.
func (f *Fingerprint) U64(name string, v uint64) *Fingerprint {
	f.writeHeader(tagU64, name)
	f.writeU64(v)
	return f
}

// I64 adds a named signed field.
func (f *Fingerprint) I64(name string, v int64) *Fingerprint {
	f.writeHeader(tagI64, name)
	f.writeU64(uint64(v))
	return f
}

// F64 adds a named float field by its IEEE-754 bit pattern (exact — no
// formatting round-trip).
func (f *Fingerprint) F64(name string, v float64) *Fingerprint {
	f.writeHeader(tagF64, name)
	f.writeU64(math.Float64bits(v))
	return f
}

// Bool adds a named boolean field.
func (f *Fingerprint) Bool(name string, v bool) *Fingerprint {
	f.writeHeader(tagBool, name)
	if v {
		f.h.Write([]byte{1})
	} else {
		f.h.Write([]byte{0})
	}
	return f
}

// Sum finalizes the fingerprint as a 64-hex-digit key, safe for use as a
// map key and a filename.
func (f *Fingerprint) Sum() string {
	return hex.EncodeToString(f.h.Sum(nil))
}
