package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a reported tail percentile must have at
// least this many samples above it, or it is lowered until it does.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the middle two for even n);
// 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPct returns the q-quantile of xs (nearest rank), lowered to the
// highest rank that still leaves minBeyond samples above it, but never
// below the median rank.
func tailPct(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	if lim := n - 1 - minBeyond; i > lim {
		i = lim
	}
	if mid := n / 2; i < mid {
		i = mid
	}
	return s[i]
}

// jobMedians returns each job's median time over the passes that ran it (a
// pass maps job → time). The jobs of a pass differ widely in cost, so
// percentiles over all samples would jump between jobs as the sample
// count changes; one value per job keeps each percentile on the same job.
func jobMedians(passes []map[string]float64) []float64 {
	byJob := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p {
			byJob[k] = append(byJob[k], v)
		}
	}
	out := make([]float64, 0, len(byJob))
	for _, xs := range byJob {
		out = append(out, median(xs))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sha is the hex SHA-256 of parts, concatenated.
func sha(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
