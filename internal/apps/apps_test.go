package apps

import (
	"fmt"
	"strings"
	"testing"

	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/rt"
	"heteropart/internal/sched"
	"heteropart/internal/task"
)

// smallVariant returns a compute-mode variant sized for tests.
func smallVariant(n int64, iters int) Variant {
	return Variant{N: n, Iters: iters, Compute: true}
}

// runSequential executes every phase of a problem as whole-kernel
// host-pinned instances with barriers — the trivially correct
// schedule — and verifies the result.
func runSequential(t *testing.T, p *Problem) *rt.Result {
	t.Helper()
	plat := device.PaperPlatform(4)
	var plan task.Plan
	for _, ph := range p.Phases {
		plan.Submit(ph.Kernel, 0, ph.Kernel.Size, 0, -1)
		if ph.SyncAfter {
			plan.Barrier()
		}
	}
	plan.Barrier()
	res, err := rt.Execute(rt.Config{Platform: plat, Scheduler: sched.NewStatic(), Compute: true}, &plan, p.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if p.Verify == nil {
		t.Fatal("compute-mode problem has no Verify")
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	return res
}

// runSplit executes every phase split between host and GPU (70/30) to
// confirm partitioned execution is still correct.
func runSplit(t *testing.T, p *Problem) {
	t.Helper()
	plat := device.PaperPlatform(2)
	var plan task.Plan
	for _, ph := range p.Phases {
		if p.AtomicPhases {
			plan.Submit(ph.Kernel, 0, ph.Kernel.Size, task.Unpinned, -1)
			continue
		}
		cut := ph.Kernel.Size * 7 / 10
		plan.Submit(ph.Kernel, 0, cut, 0, -1)
		plan.Submit(ph.Kernel, cut, ph.Kernel.Size, 1, -1)
		if ph.SyncAfter {
			plan.Barrier()
		}
	}
	plan.Barrier()
	var s sched.Scheduler = sched.NewStatic()
	if p.AtomicPhases {
		s = sched.NewDep()
	}
	if _, err := rt.Execute(rt.Config{Platform: plat, Scheduler: s, Compute: true}, &plan, p.Dir); err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("partitioned execution wrong: %v", err)
	}
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 9 {
		t.Fatalf("registry has %d apps", len(reg))
	}
	for _, a := range reg {
		got, err := ByName(a.Name())
		if err != nil || got.Name() != a.Name() {
			t.Fatalf("lookup %q failed: %v", a.Name(), err)
		}
		if a.DefaultN() <= 0 || a.DefaultIters() <= 0 {
			t.Fatalf("%s has bad defaults", a.Name())
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestPaperClasses(t *testing.T) {
	want := map[string]classify.Class{
		"MatrixMul":    classify.SKOne,
		"BlackScholes": classify.SKOne,
		"Nbody":        classify.SKLoop,
		"HotSpot":      classify.SKLoop,
		"STREAM-Seq":   classify.MKSeq,
		"STREAM-Loop":  classify.MKLoop,
		"Cholesky":     classify.MKDAG,
	}
	for name, wantClass := range want {
		app, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := app.Build(Variant{N: 128, Iters: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Class(); got != wantClass {
			t.Errorf("%s classified %v, want %v", name, got, wantClass)
		}
	}
}

func TestMatrixMulCorrect(t *testing.T) {
	p, err := NewMatrixMul().Build(smallVariant(48, 1))
	if err != nil {
		t.Fatal(err)
	}
	runSequential(t, p)
	p2, _ := NewMatrixMul().Build(smallVariant(48, 1))
	runSplit(t, p2)
}

func TestMatrixMulCostShape(t *testing.T) {
	p, err := NewMatrixMul().Build(Variant{N: 6144})
	if err != nil {
		t.Fatal(err)
	}
	k := p.Phases[0].Kernel
	// Total flops = 2 * 6144^3.
	want := 2.0 * 6144 * 6144 * 6144
	if got := k.Flops(0, 6144); got != want {
		t.Fatalf("flops = %g, want %g", got, want)
	}
	// Transfer for a 10-row chunk includes the whole B matrix.
	var bytes int64
	for _, a := range k.AccessesOf(0, 10) {
		if a.Mode.Reads() {
			bytes += a.Buf.Bytes(a.Interval)
		}
	}
	if bytes < 6144*6144*4 {
		t.Fatalf("chunk read bytes = %d, want >= full B", bytes)
	}
	if p.Phases[0].SyncAfter != true || len(p.Phases) != 1 {
		t.Fatal("MatrixMul phase shape wrong")
	}
}

func TestMatrixMulComputeSizeGuard(t *testing.T) {
	if _, err := NewMatrixMul().Build(Variant{N: 4096, Compute: true}); err == nil {
		t.Fatal("huge compute-mode matmul accepted")
	}
}

func TestBlackScholesCorrect(t *testing.T) {
	p, err := NewBlackScholes().Build(smallVariant(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	runSequential(t, p)
	p2, _ := NewBlackScholes().Build(smallVariant(5000, 1))
	runSplit(t, p2)
}

// TestBlackScholesInputsPeriodic: the compute-mode reference covers one
// input period, which is only sound if the inputs really repeat.
func TestBlackScholesInputsPeriodic(t *testing.T) {
	for i := int64(0); i < bsPeriod; i++ {
		s0, x0, t0 := bsInput(i)
		s1, x1, t1 := bsInput(i + bsPeriod)
		s2, x2, t2 := bsInput(i + 7*bsPeriod)
		if s0 != s1 || x0 != x1 || t0 != t1 || s0 != s2 || x0 != x2 || t0 != t2 {
			t.Fatalf("option %d differs from its copies one and seven periods on", i)
		}
	}
}

// TestBlackScholesCorrectPastPeriod runs a split execution over more
// than two input periods, so Verify compares wrapped elements.
func TestBlackScholesCorrectPastPeriod(t *testing.T) {
	p, err := NewBlackScholes().Build(smallVariant(2*bsPeriod+123, 1))
	if err != nil {
		t.Fatal(err)
	}
	runSplit(t, p)
}

// TestBlackScholesVerifyNamesMissedIndex: an output left uncomputed
// past the first period, or at the last index, fails Verify, and the
// error names its global index.
func TestBlackScholesVerifyNamesMissedIndex(t *testing.T) {
	n := int64(2*bsPeriod + 123)
	for _, skip := range []int64{bsPeriod, bsPeriod + 1, n - 1} {
		p, err := NewBlackScholes().Build(smallVariant(n, 1))
		if err != nil {
			t.Fatal(err)
		}
		k := p.Phases[0].Kernel
		k.Compute(0, skip)
		k.Compute(skip+1, n)
		err = p.Verify()
		if err == nil {
			t.Fatalf("output %d left uncomputed, Verify passed", skip)
		}
		if want := fmt.Sprintf("[%d]", skip); !strings.Contains(err.Error(), want) {
			t.Fatalf("output %d left uncomputed: error %q does not name it", skip, err)
		}
	}
}

func TestBlackScholesPriceSanity(t *testing.T) {
	call, put := bsPrice(100, 100, 1)
	// At-the-money call with r=2%, sigma=30%: ~12.8; put ~10.9.
	if call < 10 || call > 16 || put < 8 || put > 14 {
		t.Fatalf("bs(100,100,1) = %g/%g", call, put)
	}
	// Put-call parity: C - P = S - X e^{-rT}.
	lhs := call - put
	rhs := 100 - 100*expNeg(bsRiskFree)
	if d := lhs - rhs; d > 1e-9 || d < -1e-9 {
		t.Fatalf("put-call parity violated: %g vs %g", lhs, rhs)
	}
}

func expNeg(r float64) float64 {
	// e^{-r}, avoiding a math import in the test for one call.
	sum, term := 1.0, 1.0
	for i := 1; i < 30; i++ {
		term *= -r / float64(i)
		sum += term
	}
	return sum
}

func TestNbodyCorrect(t *testing.T) {
	p, err := NewNbody().Build(smallVariant(256, 3))
	if err != nil {
		t.Fatal(err)
	}
	runSequential(t, p)
	p2, _ := NewNbody().Build(smallVariant(256, 3))
	runSplit(t, p2)
}

func TestNbodyPhasesAlternateBuffers(t *testing.T) {
	p, err := NewNbody().Build(Variant{N: 1024, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) != 3 {
		t.Fatalf("phases = %d", len(p.Phases))
	}
	// Iteration i writes the buffer iteration i+1 reads.
	w0 := p.Phases[0].Kernel.AccessesOf(0, 10)
	r1 := p.Phases[1].Kernel.AccessesOf(0, 10)
	var wrote, read *int
	for _, a := range w0 {
		if a.Mode == task.Write {
			id := a.Buf.ID
			wrote = &id
		}
	}
	for _, a := range r1 {
		if a.Mode == task.Read {
			id := a.Buf.ID
			read = &id
		}
	}
	if wrote == nil || read == nil || *wrote != *read {
		t.Fatal("double buffering broken between iterations")
	}
	// The global read forces per-iteration sync.
	kernels := []*task.Kernel{p.Phases[0].Kernel, p.Phases[1].Kernel}
	if !classify.DetectSync(kernels, 1024) {
		t.Fatal("nbody global read not detected as sync-requiring")
	}
}

func TestHotSpotCorrect(t *testing.T) {
	p, err := NewHotSpot().Build(smallVariant(32, 3))
	if err != nil {
		t.Fatal(err)
	}
	runSequential(t, p)
	p2, _ := NewHotSpot().Build(smallVariant(32, 3))
	runSplit(t, p2)
}

func TestHotSpotHaloAccess(t *testing.T) {
	p, err := NewHotSpot().Build(Variant{N: 64, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := p.Phases[0].Kernel
	acc := k.AccessesOf(10, 20)
	// The temperature read must include halo rows 9 and 20.
	found := false
	for _, a := range acc {
		if a.Mode == task.Read && a.Interval.Lo == 9*64 && a.Interval.Hi == 21*64 {
			found = true
		}
	}
	if !found {
		t.Fatalf("halo access missing: %v", acc)
	}
	kernels := []*task.Kernel{p.Phases[0].Kernel, p.Phases[1].Kernel}
	if !classify.DetectSync(kernels, 64) {
		t.Fatal("hotspot halo not detected as sync-requiring")
	}
}

func TestStreamCorrectBothVariants(t *testing.T) {
	for _, syncMode := range []SyncMode{SyncNone, SyncForced} {
		p, err := NewStreamSeq().Build(Variant{N: 4096, Compute: true, Sync: syncMode})
		if err != nil {
			t.Fatal(err)
		}
		runSequential(t, p)
		p2, _ := NewStreamSeq().Build(Variant{N: 4096, Compute: true, Sync: syncMode})
		runSplit(t, p2)
	}
}

func TestStreamLoopCorrect(t *testing.T) {
	p, err := NewStreamLoop().Build(Variant{N: 2048, Iters: 3, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) != 12 {
		t.Fatalf("phases = %d, want 12 (4 kernels x 3 iters)", len(p.Phases))
	}
	runSequential(t, p)
	p2, _ := NewStreamLoop().Build(Variant{N: 2048, Iters: 3, Compute: true})
	runSplit(t, p2)
}

func TestStreamSyncVariants(t *testing.T) {
	noSync, _ := NewStreamSeq().Build(Variant{N: 1024, Sync: SyncNone})
	if noSync.NeedsSync() {
		t.Fatal("w/o variant reports sync")
	}
	withSync, _ := NewStreamSeq().Build(Variant{N: 1024, Sync: SyncForced})
	if !withSync.NeedsSync() {
		t.Fatal("w variant reports no sync")
	}
	// Alignment check: STREAM chunks never read outside themselves.
	if classify.DetectSync(noSync.Unique, 1024) {
		t.Fatal("aligned STREAM flagged as needing sync")
	}
}

func TestStreamSeqIsSinglePass(t *testing.T) {
	p, _ := NewStreamSeq().Build(Variant{N: 1024, Iters: 99})
	if len(p.Phases) != 4 {
		t.Fatalf("STREAM-Seq phases = %d, want 4 regardless of iters", len(p.Phases))
	}
}

func TestCholeskyCorrect(t *testing.T) {
	p, err := NewCholesky().Build(Variant{N: 64, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	if !p.AtomicPhases {
		t.Fatal("cholesky must be atomic-phase")
	}
	runSequential(t, p)
	p2, _ := NewCholesky().Build(Variant{N: 64, Compute: true})
	runSplit(t, p2)
}

func TestCholeskyDAGShape(t *testing.T) {
	p, err := NewCholesky().Build(Variant{N: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Class(); got != classify.MKDAG {
		t.Fatalf("class = %v", got)
	}
	// T=8 tiles: phases = sum_k (1 + (T-1-k) + (T-1-k) + gemms).
	if len(p.Phases) < 50 {
		t.Fatalf("phases = %d, want a rich DAG", len(p.Phases))
	}
	names := map[string]bool{}
	for _, k := range p.Unique {
		names[k.Name] = true
	}
	for _, want := range []string{"potrf", "trsm", "syrk", "gemm"} {
		if !names[want] {
			t.Fatalf("kernel %s missing", want)
		}
	}
}

func TestCholeskyRejectsBadSizes(t *testing.T) {
	if _, err := NewCholesky().Build(Variant{N: 1000, Compute: true}); err == nil {
		t.Fatal("non-tileable size accepted")
	}
	if _, err := NewCholesky().Build(Variant{N: 4096, Compute: true}); err == nil {
		t.Fatal("huge compute-mode cholesky accepted")
	}
}

func TestVariantDefaults(t *testing.T) {
	v := Variant{}.withDefaults(100, 5)
	if v.N != 100 || v.Iters != 5 || v.Spaces != 2 {
		t.Fatalf("defaults = %+v", v)
	}
	v2 := Variant{N: 7, Iters: 2, Spaces: 3}.withDefaults(100, 5)
	if v2.N != 7 || v2.Iters != 2 || v2.Spaces != 3 {
		t.Fatalf("overrides lost = %+v", v2)
	}
}

func TestProblemHelpers(t *testing.T) {
	p, _ := NewStreamSeq().Build(Variant{N: 1024})
	if p.KernelByName("triad") == nil || p.KernelByName("nosuch") != nil {
		t.Fatal("KernelByName wrong")
	}
	if len(p.Unique) != 4 {
		t.Fatalf("unique kernels = %d", len(p.Unique))
	}
}

func TestTimingModeHasNoVerify(t *testing.T) {
	p, _ := NewStreamSeq().Build(Variant{N: 1024})
	if p.Verify != nil {
		t.Fatal("timing-only problem has Verify")
	}
	if p.Phases[0].Kernel.Compute != nil {
		t.Fatal("timing-only problem has Compute")
	}
}
