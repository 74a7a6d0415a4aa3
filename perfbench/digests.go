package main

import "fmt"

// Recorded SHA-256 digests of the simulated outputs at --seed 0 (the
// default database). A change that only speeds the simulator up must leave
// them identical; at other seeds the digests are printed for comparison
// across commits.
const (
	// fig12TableSHA digests the rendered Fig. 12 table, byte-identical to
	// `samfig -exp fig12`.
	fig12TableSHA = "ea6e1d55758f495e397d3b6a8acbcf0c4b8c6c5fedb8cedab8540384b5c7baff"
	// htapStreamSHA digests the sim.EncodeResult stream of the htap-4ch
	// warm-up pass and first timed pass, both systems.
	htapStreamSHA = "3020f1293f9b4ff2f074721fa7426a2593e1fc22270aea45d569b451ab2669d7"
)

// checkDigest prints a digest and, at seed 0, compares it with the
// recorded one; a mismatch fails the n operations it covers.
func (b *bench) checkDigest(what, got, recorded string, n int) {
	fmt.Printf("digest %s seed=%d sha256=%s\n", what, b.seed, got)
	if b.seed == 0 && recorded != "" && got != recorded {
		b.fail(n, "%s digest %s differs from the recorded %s", what, got, recorded)
	}
}
