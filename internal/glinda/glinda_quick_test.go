package glinda

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property: SolveMulti conserves the problem (shares sum to n) and
// produces nonnegative shares, for random device mixes.
func TestQuickSolveMultiConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := rng.Int63n(1 << 20)
		rc := float64(rng.Intn(1000)) // may be 0 when accels exist
		k := rng.Intn(3)
		if rc == 0 && k == 0 {
			rc = 1
		}
		accels := make([]Estimate, k)
		for i := range accels {
			accels[i] = Estimate{
				Rg:      float64(rng.Intn(5000) + 1),
				B:       float64(rng.Intn(100)+1) * 1e9,
				InSlope: float64(rng.Intn(16)),
			}
			if rng.Intn(3) == 0 {
				accels[i].B = math.Inf(1)
			}
		}
		shares, err := SolveMulti(rc, accels, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sum int64
		for i, s := range shares {
			if s < 0 {
				t.Fatalf("trial %d: negative share %d at %d", trial, s, i)
			}
			sum += s
		}
		if sum != n {
			t.Fatalf("trial %d: shares sum to %d, want %d", trial, sum, n)
		}
	}
}

// Property: a faster accelerator never receives less than a strictly
// slower, otherwise identical one.
func TestQuickSolveMultiMonotone(t *testing.T) {
	f := func(r1, r2 uint16) bool {
		ra := float64(r1%5000) + 1
		rb := float64(r2%5000) + 1
		shares, err := SolveMulti(100, []Estimate{
			{Rg: ra, B: math.Inf(1)},
			{Rg: rb, B: math.Inf(1)},
		}, 1<<20)
		if err != nil {
			return false
		}
		if ra >= rb {
			return shares[1] >= shares[2]-1 // rounding slack
		}
		return shares[2] >= shares[1]-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: OptimalBeta is monotone in the rate ratio — a faster GPU
// never receives a smaller fraction.
func TestQuickOptimalBetaMonotoneInRg(t *testing.T) {
	f := func(a, d uint16) bool {
		rg1 := float64(a%5000) + 1
		rg2 := rg1 + float64(d%5000)
		e1 := Estimate{Rc: 100, Rg: rg1, B: 1e9, InSlope: 8, OutSlope: 8, N: 1 << 20}
		e2 := e1
		e2.Rg = rg2
		return e2.OptimalBeta() >= e1.OptimalBeta()-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decision's NG+NC always partitions n exactly and NG is
// warp-aligned or saturated.
func TestQuickDecidePartitions(t *testing.T) {
	plat := testPlatform(4)
	gpu := plat.Device(1)
	cfg := Config{}.Defaults()
	f := func(rc16, rg16, n16 uint16) bool {
		n := int64(n16) + 1
		e := Estimate{
			Rc: float64(rc16%999) + 1,
			Rg: float64(rg16%9999) + 1,
			B:  math.Inf(1),
			N:  n,
		}
		d := Decide(e, n, gpu, cfg)
		if d.NG+d.NC != n || d.NG < 0 || d.NC < 0 {
			return false
		}
		if d.Config == Hybrid && d.NG%32 != 0 && d.NG != n {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: PredictMakespan at the optimum is never worse than at the
// endpoints (the optimum is at least as good as Only-CPU / Only-GPU in
// the model).
func TestQuickOptimumBeatsEndpoints(t *testing.T) {
	f := func(rc16, rg16, s8 uint16) bool {
		e := Estimate{
			Rc:       float64(rc16%999) + 1,
			Rg:       float64(rg16%9999) + 1,
			B:        1e9,
			InSlope:  float64(s8 % 32),
			OutSlope: float64(s8 % 16),
			N:        1 << 20,
		}
		beta := e.OptimalBeta()
		opt := e.PredictMakespan(beta, e.N)
		eps := 1e-9 * opt
		return opt <= e.PredictMakespan(0, e.N)+eps && opt <= e.PredictMakespan(1, e.N)+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: on random nondecreasing prefix sums the slice and function
// forms of the imbalanced solver pick the same split, and that split
// attains the brute-force minimax cost. Making one step decreasing
// fails both forms with the same error, naming that index.
func TestQuickSolveImbalancedFuncMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		prefix := make([]float64, n+1)
		prefix[0] = float64(rng.Intn(3))
		for i := 1; i <= n; i++ {
			prefix[i] = prefix[i-1] + float64(rng.Intn(50)) // zero steps allowed
		}
		fn := func(i int64) float64 { return prefix[i] }
		rg, rc := float64(rng.Intn(1000)+1), float64(rng.Intn(1000)+1)
		slope, c0, bw := float64(rng.Intn(8)), float64(rng.Intn(100)), float64(rng.Intn(3))*500
		s1, err1 := SolveImbalanced(prefix, rg, rc, slope, c0, bw)
		s2, err2 := SolveImbalancedFunc(int64(n), fn, rg, rc, slope, c0, bw)
		if err1 != nil || err2 != nil || s1 != s2 {
			t.Fatalf("trial %d: slice %d (%v), func %d (%v)", trial, s1, err1, s2, err2)
		}
		cost := func(s int) float64 {
			tg := prefix[s] / rg
			if bw > 0 && s > 0 {
				tg += (slope*float64(s) + c0) / bw
			}
			return math.Max(tg, (prefix[n]-prefix[s])/rc)
		}
		best := math.Inf(1)
		for s := 0; s <= n; s++ {
			best = math.Min(best, cost(s))
		}
		if got := cost(int(s1)); got != best {
			t.Fatalf("trial %d: split %d costs %g, optimum %g", trial, s1, got, best)
		}

		if n == 0 {
			continue
		}
		k := 1 + rng.Intn(n)
		bad := append([]float64(nil), prefix...)
		bad[k] = bad[k-1] - 1
		_, err1 = SolveImbalanced(bad, rg, rc, slope, c0, bw)
		_, err2 = SolveImbalancedFunc(int64(n), func(i int64) float64 { return bad[i] }, rg, rc, slope, c0, bw)
		want := fmt.Sprintf("(index %d)", k)
		if err1 == nil || err2 == nil || err1.Error() != err2.Error() || !strings.Contains(err1.Error(), want) {
			t.Fatalf("trial %d: decreasing at %d: slice %v, func %v", trial, k, err1, err2)
		}
	}
}
