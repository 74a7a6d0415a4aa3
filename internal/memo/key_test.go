package memo

import (
	"strings"
	"testing"
)

// TestFingerprintDistinguishesFields: every single-field mutation — value,
// name, or type tag — changes the key.
func TestFingerprintDistinguishesFields(t *testing.T) {
	base := func() *Fingerprint { return NewFingerprint("t") }
	keys := map[string]string{}
	add := func(label string, f *Fingerprint) {
		k := f.Sum()
		if len(k) != 64 {
			t.Fatalf("%s: key length %d, want 64 hex digits", label, len(k))
		}
		for prev, pk := range keys {
			if pk == k {
				t.Fatalf("collision between %s and %s", label, prev)
			}
		}
		keys[label] = k
	}

	add("empty", base())
	add("str", base().Str("a", "x"))
	add("str-value", base().Str("a", "y"))
	add("str-name", base().Str("b", "x"))
	add("u64", base().U64("a", 1))
	add("u64-value", base().U64("a", 2))
	add("i64-same-bits", base().I64("a", 1)) // tag differs from u64
	add("f64", base().F64("a", 1))
	add("f64-negzero", base().F64("a", 0).F64("b", 1))
	add("bool-true", base().Bool("a", true))
	add("bool-false", base().Bool("a", false))
	add("order", base().Str("a", "x").Str("b", "y"))
	add("order-swapped", base().Str("b", "y").Str("a", "x"))
	// Concatenation ambiguity: name/value boundaries must be length-framed.
	add("split-ab-c", base().Str("ab", "c"))
	add("split-a-bc", base().Str("a", "bc"))
	add("split-empty-abc", base().Str("", "abc"))
	add("salt", NewFingerprint("t2"))
}

// TestFingerprintDeterministic: the same construction always yields the
// same key (the property cross-process disk hits depend on).
func TestFingerprintDeterministic(t *testing.T) {
	mk := func() string {
		return NewFingerprint("s").Str("q", "SELECT 1").U64("seed", 42).F64("rate", 0.25).Sum()
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("same fields, different keys: %s vs %s", a, b)
	}
}

// TestFingerprintSchemaSalt: the key visibly depends on SchemaVersion's
// value (bumping the constant invalidates every entry).
func TestFingerprintSchemaSalt(t *testing.T) {
	if !strings.HasPrefix(SchemaVersion, "sam-memo-v") {
		t.Fatalf("SchemaVersion %q does not follow the sam-memo-v<N> convention", SchemaVersion)
	}
}

// FuzzFingerprintFields: for arbitrary two-field inputs, keys collide
// exactly when the field sequences are identical.
func FuzzFingerprintFields(f *testing.F) {
	f.Add("a", "x", "b", uint64(1), "a", "x", "b", uint64(1))
	f.Add("a", "x", "b", uint64(1), "a", "x", "b", uint64(2))
	f.Add("ab", "c", "n", uint64(0), "a", "bc", "n", uint64(0))
	f.Add("", "", "", uint64(0), "", "", "", uint64(0))
	f.Fuzz(func(t *testing.T, n1, v1, n2 string, u2 uint64, m1, w1, m2 string, x2 uint64) {
		k1 := NewFingerprint("fz").Str(n1, v1).U64(n2, u2).Sum()
		k2 := NewFingerprint("fz").Str(m1, w1).U64(m2, x2).Sum()
		same := n1 == m1 && v1 == w1 && n2 == m2 && u2 == x2
		if same && k1 != k2 {
			t.Fatalf("identical fields, different keys")
		}
		if !same && k1 == k2 {
			t.Fatalf("different fields (%q=%q,%q=%d vs %q=%q,%q=%d), same key",
				n1, v1, n2, u2, m1, w1, m2, x2)
		}
	})
}
