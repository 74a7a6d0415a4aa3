// Package ecc implements the error-correcting codes the paper's memory
// system depends on: Hamming SEC-DED(72,64) for desktop parts, and the
// chipkill family — SSC (single-symbol-correct) and SSC-DSD (single-symbol-
// correct double-symbol-detect) — built on Reed-Solomon codes over GF(2^8),
// plus the codeword<->burst layout schemes of Fig. 4 (a/b/c) that determine
// whether a memory design keeps codeword integrity under strided access.
package ecc

// GF256 is the finite field GF(2^8) with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the field used by standard
// Reed-Solomon chipkill constructions.
type GF256 struct {
	exp [512]byte // exp[i] = alpha^i, doubled to avoid mod in Mul
	log [256]byte // log[exp[i]] = i; log[0] unused
}

// gf256 is the shared table instance. The tables are immutable after
// construction, so every RS code in the process can use one copy instead of
// rebuilding 768 bytes of tables per codec (which NewRS used to do once per
// fault injector per channel per run).
var gf256 = NewGF256()

// NewGF256 builds the log/antilog tables.
func NewGF256() *GF256 {
	f := &GF256{}
	x := 1
	for i := 0; i < 255; i++ {
		f.exp[i] = byte(x)
		f.log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11D
		}
	}
	for i := 255; i < 512; i++ {
		f.exp[i] = f.exp[i-255]
	}
	return f
}

// Mul returns a * b.
func (f *GF256) Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+int(f.log[b])]
}

// Div returns a / b; it panics on division by zero.
func (f *GF256) Div(a, b byte) byte {
	if b == 0 {
		panic("ecc: GF(2^8) division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+255-int(f.log[b])]
}

// Exp returns alpha^i for any non-negative i.
func (f *GF256) Exp(i int) byte { return f.exp[i%255] }

// Pow returns a^n.
func (f *GF256) Pow(a byte, n int) byte {
	if a == 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	if n == 0 {
		return 1
	}
	l := (int(f.log[a]) * n) % 255
	if l < 0 {
		l += 255
	}
	return f.exp[l]
}
