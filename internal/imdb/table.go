// Package imdb is the in-memory-database substrate the paper's workloads
// run on: relational tables of fixed-width 8-byte fields, deterministic
// synthetic data, and the record-alignment rules (Fig. 11) that the memory
// designs impose.
//
// Table values are generated lazily from a seeded mix function, so a
// "10M-record" table costs no memory until written; an updated field is
// materialized as a dense column, and inserted rows go to an overlay.
// Every executor result is therefore reproducible from (seed, schema)
// alone — the determinism invariant the tests lean on.
package imdb

import "fmt"

// FieldBytes is the fixed field width (Table 3: every field is 8 bytes).
const FieldBytes = 8

// Schema describes a table shape. Categorical maps a field index to its
// cardinality: such fields draw uniformly from {0..card-1} instead of the
// full uint64 range, which is how the benchmark's equality predicates
// (UPDATE ... WHERE f10 = z) achieve their 25% selectivity.
type Schema struct {
	Name        string
	Fields      int
	Records     int
	Categorical map[int]uint64
}

// RecordBytes returns the record size.
func (s Schema) RecordBytes() int { return s.Fields * FieldBytes }

// Validate checks the schema.
func (s Schema) Validate() error {
	if s.Fields <= 0 || s.Records < 0 {
		return fmt.Errorf("imdb: invalid schema %+v", s)
	}
	return nil
}

// PredicateField is the benchmark's selection column (f10), generated with
// four categories so that both "f10 > 2" (25% selectivity) and "f10 = 3"
// (25%) behave as the paper describes.
const PredicateField = 10

// PredicateCardinality is the category count of the benchmark predicate
// field.
const PredicateCardinality = 4

// Ta returns the paper's wide table: 128 fields (1KB records).
func Ta(records int) Schema {
	return Schema{Name: "Ta", Fields: 128, Records: records,
		Categorical: map[int]uint64{PredicateField: PredicateCardinality}}
}

// Tb returns the paper's narrow table: 16 fields (128B records).
func Tb(records int) Schema {
	return Schema{Name: "Tb", Fields: 16, Records: records,
		Categorical: map[int]uint64{PredicateField: PredicateCardinality}}
}

// Table is a lazily materialized relation.
type Table struct {
	Schema Schema
	seed   uint64
	// card is each field's categorical cardinality from
	// Schema.Categorical, 0 for a full-range field; it ends at the last
	// categorical field.
	card []uint64
	// cols holds, per field SetValue has written, every base record's
	// value: generated on the field's first write, then updated in place.
	// Unwritten fields are nil, and so is cols until the first write.
	cols [][]uint64
	// overlay holds the fields of rows appended by INSERT, keyed by
	// record*Fields+field.
	overlay map[uint64]uint64
	// extraRecords counts rows appended past Schema.Records by INSERT.
	extraRecords int
}

// NewTable builds a table whose contents derive from seed.
func NewTable(s Schema, seed uint64) *Table {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	var card []uint64
	for f, c := range s.Categorical {
		if f >= 0 && f < s.Fields && c > 0 {
			if f >= len(card) {
				card = append(card, make([]uint64, f+1-len(card))...)
			}
			card[f] = c
		}
	}
	return &Table{Schema: s, seed: seed, card: card, overlay: make(map[uint64]uint64)}
}

// Records returns the current record count (base plus inserted).
func (t *Table) Records() int { return t.Schema.Records + t.extraRecords }

// Fields returns the field count.
func (t *Table) Fields() int { return t.Schema.Fields }

// mix is a splitmix64-style hash: cheap, deterministic, well distributed.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (t *Table) key(rec, field int) uint64 {
	return uint64(rec)*uint64(t.Schema.Fields) + uint64(field)
}

// Value returns field `field` of record `rec`.
func (t *Table) Value(rec, field int) uint64 {
	if rec < 0 || rec >= t.Records() || field < 0 || field >= t.Schema.Fields {
		panic(fmt.Sprintf("imdb: value (%d,%d) out of range for %s", rec, field, t.Schema.Name))
	}
	if rec >= t.Schema.Records {
		return t.overlay[t.key(rec, field)] // inserted records default to zero until written
	}
	if t.cols != nil {
		if col := t.cols[field]; col != nil {
			return col[rec]
		}
	}
	return t.generated(rec, field)
}

// generated is a base record's field as the seed generates it.
func (t *Table) generated(rec, field int) uint64 {
	v := mix(t.seed ^ mix(t.key(rec, field)))
	if field < len(t.card) && t.card[field] > 0 {
		v %= t.card[field]
	}
	return v
}

// SetValue updates one field.
func (t *Table) SetValue(rec, field int, v uint64) {
	if rec < 0 || rec >= t.Records() || field < 0 || field >= t.Schema.Fields {
		panic(fmt.Sprintf("imdb: set (%d,%d) out of range for %s", rec, field, t.Schema.Name))
	}
	if rec >= t.Schema.Records {
		t.overlay[t.key(rec, field)] = v
		return
	}
	if t.cols == nil {
		t.cols = make([][]uint64, t.Schema.Fields)
	}
	col := t.cols[field]
	if col == nil {
		col = make([]uint64, t.Schema.Records)
		for r := range col {
			col[r] = t.generated(r, field)
		}
		t.cols[field] = col
	}
	col[rec] = v
}

// Append adds a record with the given field values (INSERT) and returns its
// index.
func (t *Table) Append(values []uint64) int {
	if len(values) != t.Schema.Fields {
		panic(fmt.Sprintf("imdb: append with %d values to %d-field table", len(values), t.Schema.Fields))
	}
	rec := t.Records()
	t.extraRecords++
	for f, v := range values {
		t.overlay[t.key(rec, f)] = v
	}
	return rec
}

// fracOfMax scales frac in [0,1] to the uint64 range. The naive
// uint64(frac*float64(^uint64(0))) is implementation-defined for frac just
// below 1: float64(^uint64(0)) rounds to 2^64, the product can round to
// exactly 2^64, and Go leaves the float→uint64 conversion of an
// out-of-range value unspecified. Instead scale by 2^53 — exact for every
// float64 in [0,1), since such values carry at most 53 significant bits —
// and shift the integer result up to the full range.
func fracOfMax(frac float64) uint64 {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return ^uint64(0)
	}
	return uint64(frac*(1<<53)) << 11
}

// SelectivityThreshold returns a predicate constant x such that
// "field > x" holds for approximately the requested fraction of the base
// records. Values are uniform over uint64, so the threshold is analytic.
func SelectivityThreshold(frac float64) uint64 {
	if frac <= 0 {
		return ^uint64(0)
	}
	if frac >= 1 {
		return 0
	}
	// 1-frac may round up to 1.0 for subnormal frac; fracOfMax clamps.
	return fracOfMax(1 - frac)
}

// Percentile returns the value v such that "field < v" selects
// approximately frac of uniform records.
func Percentile(frac float64) uint64 {
	return fracOfMax(frac)
}
