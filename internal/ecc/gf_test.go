package ecc

import (
	"testing"
	"testing/quick"
)

func TestGF256TableConsistency(t *testing.T) {
	f := NewGF256()
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		v := f.Exp(i)
		if v == 0 {
			t.Fatalf("alpha^%d = 0", i)
		}
		if seen[v] {
			t.Fatalf("alpha^%d repeats value %d", i, v)
		}
		seen[v] = true
		if int(f.log[v]) != i {
			t.Fatalf("log(exp(%d)) = %d", i, f.log[v])
		}
	}
	if len(seen) != 255 {
		t.Fatalf("exp table covers %d values, want 255", len(seen))
	}
}

func TestGF256MulProperties(t *testing.T) {
	f := NewGF256()
	// Commutativity and associativity.
	if err := quick.Check(func(a, b, c byte) bool {
		if f.Mul(a, b) != f.Mul(b, a) {
			return false
		}
		return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
	}, nil); err != nil {
		t.Error(err)
	}
	// Distributivity over addition.
	if err := quick.Check(func(a, b, c byte) bool {
		return f.Mul(a, b^c) == f.Mul(a, b)^f.Mul(a, c)
	}, nil); err != nil {
		t.Error(err)
	}
	// Identity and zero.
	for a := 0; a < 256; a++ {
		if f.Mul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for %d", a)
		}
		if f.Mul(byte(a), 0) != 0 {
			t.Fatalf("a*0 != 0 for %d", a)
		}
	}
}

func TestGF256Inverse(t *testing.T) {
	f := NewGF256()
	for a := 1; a < 256; a++ {
		inv := f.Div(1, byte(a))
		if f.Mul(byte(a), inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d (inv=%d)", a, inv)
		}
	}
}

func TestGF256DivMulRoundTrip(t *testing.T) {
	f := NewGF256()
	if err := quick.Check(func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return f.Mul(f.Div(a, b), b) == a
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestGF256Pow(t *testing.T) {
	f := NewGF256()
	for a := 0; a < 256; a++ {
		want := byte(1)
		for n := 0; n < 10; n++ {
			if got := f.Pow(byte(a), n); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, got, want)
			}
			want = f.Mul(want, byte(a))
		}
	}
	if f.Pow(0, 0) != 1 {
		t.Error("0^0 should be 1 by convention")
	}
	if f.Pow(0, 5) != 0 {
		t.Error("0^5 should be 0")
	}
}

func TestGF256PanicsOnZeroDivision(t *testing.T) {
	f := NewGF256()
	for name, fn := range map[string]func(){
		"Div": func() { f.Div(3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(0) did not panic", name)
				}
			}()
			fn()
		}()
	}
}
