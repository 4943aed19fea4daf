package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0 < q <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least q% of the
// samples at or below it. xs need not be sorted; it is not modified.
// An empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-th percentile among n
// samples, clamped to [1, n]. The small slack keeps q·n/100 from
// rounding up past an exact integer.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailLevels are the tail percentiles the benchmark may report, from
// the highest down.
var tailLevels = []float64{99.9, 99, 90, 50}

// tailPercentile is the reporting rule for tails: the highest of
// tailLevels that leaves at least ten samples beyond it among n
// samples, or 0 when not even the median does.
func tailPercentile(n int) float64 {
	for _, q := range tailLevels {
		if n > 0 && n-rank(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// windowed cuts xs into k equal consecutive windows (the last takes
// the remainder), takes the q-th percentile of each and returns their
// median. k < 2 is the plain percentile.
func windowed(xs []float64, q float64, k int) float64 {
	if k < 2 || len(xs) < k {
		return percentile(xs, q)
	}
	size := len(xs) / k
	per := make([]float64, k)
	for i := range per {
		end := (i + 1) * size
		if i == k-1 {
			end = len(xs)
		}
		per[i] = percentile(xs[i*size:end], q)
	}
	return percentile(per, 50)
}

// mean returns the arithmetic mean, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fitExponent fits y = c·x^b by least squares on log-log axes and
// returns b: the scaling exponent of a cost y against a size x. Points
// with a non-positive coordinate are skipped; fewer than two usable
// points, or a single distinct x, yield 0.
func fitExponent(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return 0
	}
	mx, my := mean(lx), mean(ly)
	var sxy, sxx float64
	for i := range lx {
		sxy += (lx[i] - mx) * (ly[i] - my)
		sxx += (lx[i] - mx) * (lx[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
