package apps

import (
	"math"

	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// BlackScholes is the paper's second SK-One application: European
// option pricing over a 1D array of options (NVIDIA OpenCL SDK). Five
// float32 arrays (spot, strike, expiry in; call, put out) make the
// kernel strongly transfer-bound on the GPU — the paper measures the
// transfer at 37.5× the kernel time — so the optimal split leans CPU
// (41%/59% CPU/GPU, Fig 6).
type BlackScholes struct{}

// NewBlackScholes returns the application.
func NewBlackScholes() BlackScholes { return BlackScholes{} }

// Name implements App.
func (BlackScholes) Name() string { return "BlackScholes" }

// DefaultN implements App: 80,530,632 options (≈1.5 GB over the five
// arrays).
func (BlackScholes) DefaultN() int64 { return 80_530_632 }

// DefaultIters implements App.
func (BlackScholes) DefaultIters() int { return 1 }

// Black-Scholes pricing constants (the NVIDIA sample's values).
const (
	bsRiskFree    = 0.02
	bsVolatility  = 0.30
	bsFlopsPerOpt = 150 // transcendental-heavy arithmetic per option
)

// cnd is the cumulative normal distribution (Abramowitz & Stegun
// 7.1.26 polynomial, the same approximation the SDK kernel uses).
func cnd(d float64) float64 {
	const (
		a1 = 0.31938153
		a2 = -0.356563782
		a3 = 1.781477937
		a4 = -1.821255978
		a5 = 1.330274429
	)
	k := 1.0 / (1.0 + 0.2316419*math.Abs(d))
	cnd := 1.0 / math.Sqrt(2*math.Pi) * math.Exp(-0.5*d*d) *
		(k * (a1 + k*(a2+k*(a3+k*(a4+k*a5)))))
	if d > 0 {
		return 1 - cnd
	}
	return cnd
}

// bsPrice prices one option the way the SDK kernel does: two CND
// evaluations, with the put taken from their complements
// (CND(-d) = 1 - CND(d)).
func bsPrice(s, x, t float64) (call, put float64) {
	sqrtT := math.Sqrt(t)
	d1 := (math.Log(s/x) + (bsRiskFree+0.5*bsVolatility*bsVolatility)*t) / (bsVolatility * sqrtT)
	d2 := d1 - bsVolatility*sqrtT
	expRT := math.Exp(-bsRiskFree * t)
	cndD1, cndD2 := cnd(d1), cnd(d2)
	call = s*cndD1 - x*expRT*cndD2
	put = x*expRT*(1-cndD2) - s*(1-cndD1)
	return call, put
}

// bsInput generates option i's compute-mode inputs.
func bsInput(i int64) (spot, strike, expiry float32) {
	return 5 + float32((i*13)%96), // spot 5..100
		1 + float32((i*29)%99), // strike 1..99
		0.25 + float32((i*7)%40)*0.0625 // expiry 0.25..2.7y
}

// bsPeriod is the period of the generated compute-mode inputs,
// lcm(96, 99, 40) of the spot, strike and expiry generators: option i
// and option i+bsPeriod are priced identically, so the reference needs
// one period only.
const bsPeriod = 15840

// Build implements App.
func (b BlackScholes) Build(v Variant) (*Problem, error) {
	v = v.withDefaults(b.DefaultN(), 1)
	n := v.N
	dir := mem.NewDirectory(v.Spaces)
	spot := dir.Register("spot", n, 4)
	strike := dir.Register("strike", n, 4)
	expiry := dir.Register("expiry", n, 4)
	call := dir.Register("call", n, 4)
	put := dir.Register("put", n, 4)

	kernel := &task.Kernel{
		Name:      "black_scholes",
		Size:      n,
		Precision: device.SP,
		Eff:       blackScholesEff,
		Flops:     func(lo, hi int64) float64 { return bsFlopsPerOpt * float64(hi-lo) },
		MemBytes:  func(lo, hi int64) float64 { return 20 * float64(hi-lo) }, // 5 arrays x 4 B
		Accesses: func(lo, hi int64) []task.Access {
			return []task.Access{
				rw(spot, lo, hi, task.Read),
				rw(strike, lo, hi, task.Read),
				rw(expiry, lo, hi, task.Read),
				rw(call, lo, hi, task.Write),
				rw(put, lo, hi, task.Write),
			}
		},
	}

	p := &Problem{
		AppName:   b.Name(),
		N:         n,
		Iters:     1,
		Dir:       dir,
		Phases:    []Phase{{Kernel: kernel, SyncAfter: true}},
		Structure: classify.Structure{Flow: classify.Call{Kernel: kernel.Name}},
	}
	p.Unique = collectUnique(p.Phases)

	if v.Compute {
		s := make([]float32, n)
		x := make([]float32, n)
		t := make([]float32, n)
		callOut := make([]float32, n)
		putOut := make([]float32, n)
		for i := range s {
			s[i], x[i], t[i] = bsInput(int64(i))
		}
		ref := min(n, bsPeriod)
		wantCall := make([]float32, ref)
		wantPut := make([]float32, ref)
		for i := int64(0); i < ref; i++ {
			c, pu := bsPrice(float64(s[i]), float64(x[i]), float64(t[i]))
			wantCall[i], wantPut[i] = float32(c), float32(pu)
		}
		kernel.Compute = func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				c, pu := bsPrice(float64(s[i]), float64(x[i]), float64(t[i]))
				callOut[i], putOut[i] = float32(c), float32(pu)
			}
		}
		p.Verify = func() error {
			if err := checkPeriodic("call", callOut, wantCall, 1e-5); err != nil {
				return err
			}
			return checkPeriodic("put", putOut, wantPut, 1e-5)
		}
	}
	return p, nil
}
