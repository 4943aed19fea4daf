package glinda

import "fmt"

// SolveImbalanced handles workloads whose per-element cost varies (the
// Glinda ICS'14 extension, reference [9]: "matching imbalanced
// workloads"): given the prefix sums of the per-element weights, it
// finds the split point s such that the GPU takes [0, s) and the CPU
// takes [s, n), minimizing max(T_gpu, T_cpu) with
//
//	T_gpu(s) = P[s]/rgw + (slope·s + c0)/B      (weights/s + bytes/s)
//	T_cpu(s) = (P[n] - P[s])/rcw
//
// rgw and rcw are throughputs in weight units per second; the transfer
// term is bytes over bandwidth B, and bandwidth <= 0 drops it (a
// kernel that moves no data).
//
// Both sides are monotone in s (GPU nondecreasing, CPU nonincreasing),
// so the minimax sits where they cross; binary search finds it in
// O(log n).
func SolveImbalanced(prefix []float64, rgw, rcw, slope, c0, bandwidth float64) (int64, error) {
	return SolveImbalancedFunc(int64(len(prefix)-1), func(i int64) float64 { return prefix[i] },
		rgw, rcw, slope, c0, bandwidth)
}

// SolveImbalancedFunc is SolveImbalanced over n elements whose prefix
// sums come from a function: prefix(i) is the total weight of [0, i)
// for i in [0, n]. Closed-form profiles need no n+1-element table.
func SolveImbalancedFunc(n int64, prefix func(int64) float64, rgw, rcw, slope, c0, bandwidth float64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("glinda: prefix sums empty")
	}
	if rgw <= 0 && rcw <= 0 {
		return 0, fmt.Errorf("glinda: no capable devices")
	}
	if rgw <= 0 {
		return 0, nil
	}
	if rcw <= 0 {
		return n, nil
	}
	prev := prefix(0)
	for i := int64(1); i <= n; i++ {
		cur := prefix(i)
		if cur < prev {
			return 0, fmt.Errorf("glinda: prefix sums must be nondecreasing (index %d)", i)
		}
		prev = cur
	}
	total := prev
	tg := func(s int64) float64 {
		t := prefix(s) / rgw
		if bandwidth > 0 && s > 0 {
			t += (slope*float64(s) + c0) / bandwidth
		}
		return t
	}
	tc := func(s int64) float64 { return (total - prefix(s)) / rcw }
	return solveMinimax(n, tg, tc), nil
}

// SolveImbalancedPrefix is the fully nonlinear variant: both the
// compute weight and the transfer bytes of a prefix come from prefix
// sums, so iteration spaces whose *footprint* is also uneven (e.g.
// packed triangular data) are priced correctly.
func SolveImbalancedPrefix(weight, bytes []float64, rgw, rcw, bandwidth float64) (int64, error) {
	if len(weight) < 1 || len(bytes) != len(weight) {
		return 0, fmt.Errorf("glinda: prefix lengths %d vs %d", len(weight), len(bytes))
	}
	n := int64(len(weight) - 1)
	if rgw <= 0 && rcw <= 0 {
		return 0, fmt.Errorf("glinda: no capable devices")
	}
	if rgw <= 0 {
		return 0, nil
	}
	if rcw <= 0 {
		return n, nil
	}
	for i := 1; i < len(weight); i++ {
		if weight[i] < weight[i-1] || bytes[i] < bytes[i-1] {
			return 0, fmt.Errorf("glinda: prefix sums must be nondecreasing (index %d)", i)
		}
	}
	tg := func(s int64) float64 {
		t := weight[s] / rgw
		if bandwidth > 0 {
			t += bytes[s] / bandwidth
		}
		return t
	}
	tc := func(s int64) float64 { return (weight[n] - weight[s]) / rcw }
	return solveMinimax(n, tg, tc), nil
}

// solveMinimax finds the s in [0, n] minimizing max(tg(s), tc(s)),
// with tg nondecreasing and tc nonincreasing, by binary search for the
// crossing followed by a neighbour check.
func solveMinimax(n int64, tg, tc func(int64) float64) int64 {

	// Find the smallest s with T_gpu(s) >= T_cpu(s).
	lo, hi := int64(0), n
	for lo < hi {
		mid := (lo + hi) / 2
		if tg(mid) >= tc(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	best := lo
	if lo > 0 && maxf(tg(lo-1), tc(lo-1)) < maxf(tg(lo), tc(lo)) {
		best = lo - 1
	}
	return best
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
