package ecc

import (
	"errors"
	"fmt"
)

// RS is a systematic Reed-Solomon code over GF(2^8) with n total symbols
// and k data symbols (n-k check symbols), shortened from the natural length
// 255. The decoder corrects up to MaxCorrect symbol errors (defaulting to
// floor((n-k)/2)) and reports anything beyond as detected-uncorrectable.
//
// Chipkill instances:
//   - SSC:      NewRS(18, 16, 1) — 16 data chips + 2 check chips, 8-bit
//     symbols, corrects one dead chip per codeword.
//   - SSC-DSD:  NewRS(36, 32, 1) — doubled channel of x4 chips; 4 check
//     symbols give distance 5, but the deployed policy corrects one symbol
//     and *detects* multi-symbol faults (MaxCorrect=1).
//
// Every codec call runs on scratch buffers the RS owns (see DESIGN.md,
// "Codec scratch ownership"): encode/decode are allocation-free at steady
// state, and in exchange an RS value is NOT goroutine-safe. Build one codec
// per goroutine — which the system does anyway (one injector per channel,
// one rank model per test).
type RS struct {
	f          *GF256
	n, k       int
	MaxCorrect int
	// genMul[f] packs the generator polynomial's coefficients below the
	// leading 1 (highest degree first) times f, the first in the low byte:
	// what one division step subtracts from the remainder register.
	genMul [256]uint64

	// Scratch workspaces, sized once in NewRS so the hot paths never make
	// or grow a slice. lambda/bpoly/tpoly carry the Berlekamp-Massey
	// polynomials, whose lengths stay well under the generous polyCap.
	syn       []byte
	lambda    []byte
	bpoly     []byte
	tpoly     []byte
	omega     []byte
	positions []int
}

// ErrDetected reports an error pattern the decode policy cannot correct but
// could detect; the memory system treats it as a fatal (machine-check) event.
var ErrDetected = errors.New("ecc: uncorrectable error detected")

// NewRS builds an RS(n,k) code with at most 8 check symbols (the encoder
// keeps the remainder in one 64-bit register). maxCorrect <= 0 selects the
// full correction power floor((n-k)/2). It panics on invalid geometry.
func NewRS(n, k, maxCorrect int) *RS {
	if n <= k || k <= 0 || n > 255 || n-k > 8 {
		panic(fmt.Sprintf("ecc: invalid RS geometry n=%d k=%d", n, k))
	}
	t := (n - k) / 2
	if maxCorrect <= 0 || maxCorrect > t {
		maxCorrect = t
	}
	r := &RS{f: gf256, n: n, k: k, MaxCorrect: maxCorrect}
	// g(x) = prod_{i=0}^{n-k-1} (x - alpha^i)
	g := []byte{1}
	for i := 0; i < n-k; i++ {
		root := r.f.Exp(i)
		next := make([]byte, len(g)+1)
		for j, c := range g {
			next[j] ^= r.f.Mul(c, root)
			next[j+1] ^= c
		}
		g = next
	}
	// store with highest degree first
	for i, j := 0, len(g)-1; i < j; i, j = i+1, j-1 {
		g[i], g[j] = g[j], g[i]
	}

	nc := n - k
	for f := range r.genMul {
		for j := 1; j <= nc; j++ {
			r.genMul[f] |= uint64(r.f.Mul(g[j], byte(f))) << (8 * (j - 1))
		}
	}
	// The BM polynomials never exceed nc+1 coefficients plus the x^m shift
	// (m <= nc); 2*nc+2 bounds them, doubled for headroom.
	polyCap := 4*nc + 4
	r.syn = make([]byte, nc)
	r.lambda = make([]byte, 0, polyCap)
	r.bpoly = make([]byte, 0, polyCap)
	r.tpoly = make([]byte, 0, polyCap)
	r.omega = make([]byte, nc)
	r.positions = make([]int, 0, nc)
	return r
}

// N returns the codeword length in symbols.
func (r *RS) N() int { return r.n }

// K returns the number of data symbols.
func (r *RS) K() int { return r.k }

// EncodeInto writes the n-symbol codeword for data into out (len n)
// without allocating.
func (r *RS) EncodeInto(out, data []byte) {
	if len(data) != r.k {
		panic(fmt.Sprintf("ecc: Encode wants %d data symbols, got %d", r.k, len(data)))
	}
	if len(out) != r.n {
		panic(fmt.Sprintf("ecc: EncodeInto wants a %d-symbol buffer, got %d", r.n, len(out)))
	}
	// Polynomial long division of data * x^(n-k) by the generator. Byte j
	// of rem is the remainder's coefficient j places below the top; each
	// step shifts the register one symbol and subtracts the generator
	// times the top coefficient plus the incoming data symbol.
	var rem uint64
	for _, d := range data {
		rem = rem>>8 ^ r.genMul[byte(rem)^d]
	}
	copy(out, data)
	for j := r.k; j < r.n; j++ {
		out[j] = byte(rem)
		rem >>= 8
	}
}

// syndromesInto fills syn (len n-k) and reports whether every syndrome is
// zero (a valid codeword).
func (r *RS) syndromesInto(syn, recv []byte) (zero bool) {
	if len(recv) != r.n {
		panic(fmt.Sprintf("ecc: Syndromes wants %d symbols, got %d", r.n, len(recv)))
	}
	zero = true
	for i := range syn {
		// Evaluate the received polynomial at alpha^i. recv[0] holds the
		// highest-degree coefficient (degree n-1).
		var s byte
		x := r.f.Exp(i)
		for _, c := range recv {
			s = r.f.Mul(s, x) ^ c
		}
		syn[i] = s
		if s != 0 {
			zero = false
		}
	}
	return zero
}

// decodeReport is the scratch-backed decoder core. The returned positions
// slice aliases r.positions and is valid only until the next codec call.
func (r *RS) decodeReport(recv []byte) (positions []int, err error) {
	syn := r.syn[:r.n-r.k]
	if r.syndromesInto(syn, recv) {
		return nil, nil
	}
	lambda, errCount := r.berlekampMassey(syn)
	if errCount == 0 || errCount > r.MaxCorrect {
		return nil, ErrDetected
	}
	positions = r.chienSearch(lambda)
	if len(positions) != errCount {
		return nil, ErrDetected
	}
	r.forney(recv, syn, lambda, positions)
	// Verify: residual syndromes must vanish (syn is free for reuse here —
	// forney has already consumed it).
	if !r.syndromesInto(syn, recv) {
		return nil, ErrDetected
	}
	return positions, nil
}

// berlekampMassey returns the error-locator polynomial (lowest degree first)
// and its degree (the estimated error count). The returned slice aliases the
// codec's lambda scratch.
func (r *RS) berlekampMassey(syn []byte) (lambda []byte, deg int) {
	lambda = append(r.lambda[:0], 1)
	b := append(r.bpoly[:0], 1)
	var l, m int = 0, 1
	var bb byte = 1
	for n := 0; n < len(syn); n++ {
		var d byte = syn[n]
		for i := 1; i <= l && i < len(lambda); i++ {
			d ^= r.f.Mul(lambda[i], syn[n-i])
		}
		if d == 0 {
			m++
			continue
		}
		if 2*l <= n {
			t := append(r.tpoly[:0], lambda...)
			coef := r.f.Div(d, bb)
			lambda = polyAddShift(r.f, lambda, b, coef, m)
			l = n + 1 - l
			b = append(b[:0], t...)
			r.tpoly = t[:0]
			bb = d
			m = 1
		} else {
			coef := r.f.Div(d, bb)
			lambda = polyAddShift(r.f, lambda, b, coef, m)
			m++
		}
	}
	r.lambda, r.bpoly = lambda[:0], b[:0]
	return lambda, l
}

// polyAddShift returns a + coef * b * x^shift (polynomials lowest degree
// first), extending a in place. a and b must not alias; a's capacity must
// cover the result (guaranteed by the polyCap sizing in NewRS).
func polyAddShift(f *GF256, a, b []byte, coef byte, shift int) []byte {
	size := len(a)
	if len(b)+shift > size {
		size = len(b) + shift
	}
	for len(a) < size {
		a = append(a, 0)
	}
	for i, c := range b {
		a[i+shift] ^= f.Mul(c, coef)
	}
	return a
}

// chienSearch finds error positions (indices into the received word, 0 =
// highest-degree symbol = first byte) whose locators are roots of lambda.
// The returned slice aliases the codec's positions scratch.
func (r *RS) chienSearch(lambda []byte) []int {
	positions := r.positions[:0]
	for pos := 0; pos < r.n; pos++ {
		// Symbol at index pos has degree n-1-pos, locator X = alpha^(n-1-pos).
		// It is an error position iff lambda(X^-1) == 0.
		xInv := r.f.Exp((255 - (r.n - 1 - pos)) % 255)
		var v byte
		for i := len(lambda) - 1; i >= 0; i-- {
			v = r.f.Mul(v, xInv) ^ lambda[i]
		}
		if v == 0 {
			positions = append(positions, pos)
		}
	}
	r.positions = positions[:0]
	return positions
}

// forney computes error magnitudes and fixes recv in place.
func (r *RS) forney(recv, syn, lambda []byte, positions []int) {
	// Omega(x) = [S(x) * Lambda(x)] mod x^(n-k), with S(x) = sum syn[i] x^i.
	nc := r.n - r.k
	omega := r.omega[:nc]
	for i := 0; i < nc; i++ {
		omega[i] = 0
		for j := 0; j <= i && j < len(lambda); j++ {
			omega[i] ^= r.f.Mul(syn[i-j], lambda[j])
		}
	}
	// Lambda'(x): formal derivative — odd-degree terms survive.
	for _, pos := range positions {
		deg := r.n - 1 - pos
		xInv := r.f.Exp((255 - deg) % 255)
		// omega(xInv)
		var num byte
		for i := len(omega) - 1; i >= 0; i-- {
			num = r.f.Mul(num, xInv) ^ omega[i]
		}
		// lambda'(xInv)
		var den byte
		for i := 1; i < len(lambda); i += 2 {
			den ^= r.f.Mul(lambda[i], r.f.Pow(xInv, i-1))
		}
		if den == 0 {
			continue // degenerate; residual-syndrome check will flag it
		}
		// Forney with b=0 syndromes carries an X_j^(1-b) = X_j factor.
		mag := r.f.Mul(r.f.Exp(deg%255), r.f.Div(num, den))
		recv[pos] ^= mag
	}
}
