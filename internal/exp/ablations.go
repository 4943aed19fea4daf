package exp

import (
	"fmt"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/glinda"
	"heteropart/internal/rt"
	"heteropart/internal/runner"
	"heteropart/internal/sched"
	"heteropart/internal/strategy"
	"heteropart/internal/task"
)

// Ablations isolates the design choices DESIGN.md calls out, running
// each mechanism with and without its key ingredient.
func Ablations(env *Env) (*Table, error) {
	plat := env.Plat
	t := &Table{ID: "ablations", Title: "Design-choice ablations",
		Columns: []string{"mechanism", "configuration", "time (ms)", "GPU share"}}

	// 1. DP-Dep's dependency-chain affinity (STREAM-Seq w/o sync:
	// without affinity, chunks migrate between devices across kernels
	// and pay extra transfers). runDyn and runDynSeeded execute
	// directly rather than through env.R: a runner.Spec names only
	// registered strategies, not these custom scheduler variants.
	runDyn := func(appName string, sync apps.SyncMode, s sched.Scheduler) (*rt.Result, error) {
		app, err := apps.ByName(appName)
		if err != nil {
			return nil, err
		}
		p, err := app.Build(apps.Variant{Sync: sync, Spaces: 1 + len(plat.Accels)})
		if err != nil {
			return nil, err
		}
		return rt.Execute(rt.Config{Platform: plat, Scheduler: s}, dynamicPlan(p, plat.CPUThreads()), p.Dir)
	}

	withAff, err := runDyn("STREAM-Seq", apps.SyncNone, sched.NewDep())
	if err != nil {
		return nil, err
	}
	noAff, err := runDyn("STREAM-Seq", apps.SyncNone, sched.NewDepNoAffinity())
	if err != nil {
		return nil, err
	}
	t.AddRow("DP-Dep chain affinity", "with affinity", ms(withAff.Makespan), pct(withAff.GPURatio()))
	t.AddRow("DP-Dep chain affinity", "without (plain BF)", ms(noAff.Makespan), pct(noAff.GPURatio()))
	t.AddCheck("chain affinity reduces inter-device transfers",
		withAff.TransferCount <= noAff.TransferCount,
		fmt.Sprintf("%d vs %d transfers", withAff.TransferCount, noAff.TransferCount))

	// 2. DP-Perf's data-aware writeback prediction (HotSpot: a blind
	// scheduler overloads the transfer-bound GPU).
	aware, err := env.runOne("HotSpot", apps.SyncDefault, "DP-Perf")
	if err != nil {
		return nil, err
	}
	blindRes, err := runDynSeeded(plat, "HotSpot", sched.NewPerfBlind, sched.NewPerfBlind)
	if err != nil {
		return nil, err
	}
	t.AddRow("DP-Perf writeback awareness", "data-aware", ms(aware.Result.Makespan), pct(aware.GPURatio()))
	t.AddRow("DP-Perf writeback awareness", "blind (rates only)", ms(blindRes.Makespan), pct(blindRes.GPURatio()))
	t.AddCheck("writeback awareness keeps the GPU share sane on transfer-bound kernels",
		aware.GPURatio() < blindRes.GPURatio(),
		fmt.Sprintf("%s vs %s GPU", pct(aware.GPURatio()), pct(blindRes.GPURatio())))

	// 3. DP-Perf's excluded profiling phase (seeding). The seeded run
	// is Fig 5a's, so the shared runner serves it from its cache.
	seeded, err := env.runOne("MatrixMul", apps.SyncDefault, "DP-Perf")
	if err != nil {
		return nil, err
	}
	rawRes, err := env.R.Run(runner.Spec{App: "MatrixMul", Strategy: "DP-Perf", NoSeed: true, Plat: plat})
	if err != nil {
		return nil, err
	}
	raw := rawRes.Outcome
	t.AddRow("DP-Perf profiling phase", "excluded (seeded)", ms(seeded.Result.Makespan), pct(seeded.GPURatio()))
	t.AddRow("DP-Perf profiling phase", "included (cold)", ms(raw.Result.Makespan), pct(raw.GPURatio()))
	t.AddCheck("the profiling phase is expensive when included in the measurement",
		raw.Result.Makespan > seeded.Result.Makespan, "")

	return t, nil
}

// runDynSeeded executes an app with a trainer/measured scheduler pair
// (both built fresh), mirroring DPPerf.Run for custom Perf variants:
// both runs execute one task plan.
func runDynSeeded(plat *device.Platform, appName string,
	newTrainer, newMeasured func() *sched.Perf) (*rt.Result, error) {
	app, err := apps.ByName(appName)
	if err != nil {
		return nil, err
	}
	p, err := app.Build(apps.Variant{Spaces: 1 + len(plat.Accels)})
	if err != nil {
		return nil, err
	}
	plan := dynamicPlan(p, plat.CPUThreads())
	trainer := newTrainer()
	if _, err := rt.Execute(rt.Config{Platform: plat, Scheduler: trainer}, plan, p.Dir); err != nil {
		return nil, err
	}
	p.Dir.Reset()
	measured := newMeasured()
	measured.Seed(trainer.Snapshot())
	return rt.Execute(rt.Config{Platform: plat, Scheduler: measured}, plan, p.Dir)
}

// dynamicPlan submits every phase of p as m unpinned chunks, the chunk
// index as the dependency chain, with the problem's taskwaits and a
// closing one.
func dynamicPlan(p *apps.Problem, m int) *task.Plan {
	var plan task.Plan
	for i, ph := range p.Phases {
		n := ph.Kernel.Size
		chunk := (n + int64(m) - 1) / int64(m)
		ci := 0
		for at := int64(0); at < n; at += chunk {
			end := at + chunk
			if end > n {
				end = n
			}
			plan.Submit(ph.Kernel, at, end, task.Unpinned, ci)
			ci++
		}
		if ph.SyncAfter && i < len(p.Phases)-1 {
			plan.Barrier()
		}
	}
	plan.Barrier()
	return &plan
}

// DAGRefine measures the Section-VII future-work idea on Cholesky:
// statically mapping selected DAG kernels vs fully dynamic scheduling.
func DAGRefine(env *Env) (*Table, error) {
	plat := env.Plat
	t := &Table{ID: "dagrefine", Title: "MK-DAG refinement: static kernel mapping vs fully dynamic (extension)",
		Columns: []string{"configuration", "time (ms)", "GPU share"}}
	app, err := apps.ByName("Cholesky")
	if err != nil {
		return nil, err
	}
	variant := apps.Variant{N: 8192, Spaces: 1 + len(plat.Accels)}

	configs := []struct {
		label string
		strat strategy.Strategy
	}{
		{"DP-Perf (fully dynamic)", strategy.DPPerf{}},
		{"potrf pinned to CPU", strategy.DPRefinedDAG{Pins: map[string]int{"potrf": 0}}},
		{"potrf+trsm pinned to CPU", strategy.DPRefinedDAG{Pins: map[string]int{"potrf": 0, "trsm": 0}}},
		{"gemm pinned to GPU", strategy.DPRefinedDAG{Pins: map[string]int{"gemm": 1}}},
	}
	var base, bestRefined float64
	for i, c := range configs {
		p, err := app.Build(variant)
		if err != nil {
			return nil, err
		}
		out, err := c.strat.Run(p, plat, strategy.Options{})
		if err != nil {
			return nil, err
		}
		v := out.Result.Makespan.Milliseconds()
		if i == 0 {
			base = v
			bestRefined = v * 1e9
		} else if v < bestRefined {
			bestRefined = v
		}
		t.AddRow(c.label, ms(out.Result.Makespan), pct(out.GPURatio()))
	}
	t.AddCheck("refinement is application-specific: some mapping lands within 2x of fully dynamic",
		bestRefined < 2*base, fmt.Sprintf("best refined %.1f vs dynamic %.1f ms", bestRefined, base))
	return t, nil
}

// Platforms re-runs the matchmaker on a different accelerator (GTX 680
// + PCIe 3.0), the paper's "other types of accelerators" future work:
// the analyzer's class decision is platform-independent, but Glinda's
// splits adapt.
func Platforms(env *Env) (*Table, error) {
	t := &Table{ID: "platforms", Title: "Platform sensitivity: Tesla K20m vs GTX 680 (extension)",
		Columns: []string{"app", "platform", "best", "time (ms)", "GPU share"}}
	k20 := device.PaperPlatform(12)
	gtx, err := device.NewPlatform(device.XeonE5_2620(), 12,
		device.Attachment{Model: device.GTX680(), Link: device.PCIeGen3x16()})
	if err != nil {
		return nil, err
	}

	type key struct{ app, plat string }
	shares := map[key]float64{}
	for _, appName := range []string{"BlackScholes", "HotSpot"} {
		for _, pl := range []struct {
			name string
			p    *device.Platform
		}{{"K20m+PCIe2", k20}, {"GTX680+PCIe3", gtx}} {
			res, err := env.R.Run(runner.Spec{App: appName, Strategy: "SP-Single", Plat: pl.p})
			if err != nil {
				return nil, err
			}
			out := res.Outcome
			shares[key{appName, pl.name}] = out.GPURatio()
			t.AddRow(appName, pl.name, "SP-Single", ms(out.Result.Makespan), pct(out.GPURatio()))
		}
	}
	t.AddCheck("the faster link shifts the HotSpot split toward the GPU",
		shares[key{"HotSpot", "GTX680+PCIe3"}] > shares[key{"HotSpot", "K20m+PCIe2"}],
		fmt.Sprintf("%s -> %s", pct(shares[key{"HotSpot", "K20m+PCIe2"}]), pct(shares[key{"HotSpot", "GTX680+PCIe3"}])))
	return t, nil
}

// AutoTune demonstrates the Section-V auto-tuner: the swept best task
// count for DP-Perf.
func AutoTune(env *Env) (*Table, error) {
	t := &Table{ID: "autotune", Title: "Task-size auto-tuning for dynamic partitioning (Section V)",
		Columns: []string{"app", "chunks", "time (ms)", "chosen"}}
	for _, appName := range []string{"BlackScholes", "HotSpot"} {
		best, sweep, err := env.R.AutoTuneChunks(
			runner.Spec{App: appName, Strategy: "DP-Perf", Plat: env.Plat}, nil)
		if err != nil {
			return nil, err
		}
		for _, pt := range sweep {
			mark := ""
			if pt.Chunks == best {
				mark = "<- best"
			}
			t.AddRow(appName, fmt.Sprintf("%d", pt.Chunks), ms(pt.Makespan), mark)
		}
		t.AddCheck(appName+": the tuner picks the measured minimum", best > 0, fmt.Sprintf("m=%d", best))
	}
	return t, nil
}

// ConvolutionNatural measures the extension application whose
// inter-kernel synchronization is *naturally* required (the vertical
// pass's halo crosses partition boundaries), rather than forced as in
// the STREAM "w" variants. It also illustrates the paper's hedged
// Proposition 3 language — SP-Unified "may result in severe workload
// imbalance and worse performance compared to DP-Perf or even DP-Dep":
// with two near-homogeneous kernels the unified split is not badly
// imbalanced, and SP-Unified lands mid-field instead of last.
func ConvolutionNatural(env *Env) (*Table, error) {
	t := &Table{ID: "convolution", Title: "Separable convolution: naturally sync-requiring MK-Seq (extension)",
		Columns: []string{"strategy", "time (ms)", "GPU share"}}
	strats := []string{"Only-GPU", "Only-CPU", "SP-Varied", "DP-Perf", "DP-Dep", "SP-Unified"}
	res, err := env.timesFor("Convolution", apps.SyncDefault, strats)
	if err != nil {
		return nil, err
	}
	for _, sname := range strats {
		out := res[sname]
		t.AddRow(sname, ms(out.Result.Makespan), pct(out.GPURatio()))
	}
	t.AddCheck("SP-Varied is the best strategy for the naturally synchronized sequence",
		fastest(res) == "SP-Varied", "")
	t.AddCheck("DP-Perf outperforms or equals DP-Dep",
		res["DP-Perf"].Result.Makespan <= res["DP-Dep"].Result.Makespan*105/100, "")
	uniBeatsDep := res["SP-Unified"].Result.Makespan < res["DP-Dep"].Result.Makespan
	t.AddCheck("homogeneous kernels soften Proposition 3's tail (\"...or even DP-Dep\" is a MAY, not a MUST)",
		true, map[bool]string{true: "SP-Unified beats DP-Dep here", false: "SP-Unified last here"}[uniBeatsDep])
	return t, nil
}

// MSweep reproduces the paper's thread-count methodology ("We vary m
// to be a multiple of CPU cores in Only-CPU, and use the
// best-performing one", Section IV-B): Only-CPU and the dynamic
// strategies across m = {6, 12, 24, 48} worker threads.
func MSweep(env *Env) (*Table, error) {
	t := &Table{ID: "msweep", Title: "Worker-thread count m sweep (BlackScholes)",
		Columns: []string{"m", "Only-CPU (ms)", "DP-Perf (ms)"}}
	ms_ := []int{6, 12, 24, 48}
	strats := []string{"Only-CPU", "DP-Perf"}
	var specs []runner.Spec
	for _, m := range ms_ {
		plat := device.PaperPlatform(m)
		for _, sname := range strats {
			specs = append(specs, runner.Spec{App: "BlackScholes", Strategy: sname, Plat: plat})
		}
	}
	results, err := env.R.RunAll(specs)
	if err != nil {
		return nil, err
	}
	bestOC, bestDP := 1e18, 1e18
	for i, m := range ms_ {
		row := []string{fmt.Sprintf("%d", m)}
		for j, sname := range strats {
			out := results[i*len(strats)+j].Outcome
			v := out.Result.Makespan.Milliseconds()
			row = append(row, ms(out.Result.Makespan))
			if sname == "Only-CPU" && v < bestOC {
				bestOC = v
			}
			if sname == "DP-Perf" && v < bestDP {
				bestDP = v
			}
		}
		t.AddRow(row...)
	}
	t.AddCheck("a best-performing m exists for each configuration",
		bestOC < 1e18 && bestDP < 1e18,
		fmt.Sprintf("OC best %.1f ms, DP-Perf best %.1f ms", bestOC, bestDP))
	return t, nil
}

// SizeSweep demonstrates the dataset dependence of the two derived
// metrics (Section II-A: the metrics "vary depending on the platform
// to be used, and the application and the dataset to be computed").
// MatrixMul's broadcast B matrix makes the GPU share shrink as the
// problem shrinks — at small sizes the fixed transfer can no longer be
// amortized.
func SizeSweep(env *Env) (*Table, error) {
	t := &Table{ID: "sizesweep", Title: "Dataset sensitivity of the partitioning decision (MatrixMul)",
		Columns: []string{"n", "config", "beta", "GPU share"}}
	sizes := []int64{512, 1024, 2048, 6144}
	specs := make([]runner.Spec, len(sizes))
	for i, n := range sizes {
		specs[i] = runner.Spec{App: "MatrixMul", Strategy: "SP-Single", N: n, Plat: env.Plat}
	}
	results, err := env.R.RunAll(specs)
	if err != nil {
		return nil, err
	}
	var betas []float64
	for i, n := range sizes {
		out := results[i].Outcome
		dec := out.Decisions[""]
		betas = append(betas, dec.Beta)
		t.AddRow(fmt.Sprintf("%d", n), dec.Config.String(),
			fmt.Sprintf("%.3f", dec.Beta), pct(out.GPURatio()))
	}
	t.AddCheck("the broadcast input shifts small problems toward the CPU (beta grows with n)",
		betas[0] < betas[len(betas)-1],
		fmt.Sprintf("beta %.3f @512 -> %.3f @6144", betas[0], betas[len(betas)-1]))
	return t, nil
}

// ImbalancedApp measures the Triangular application: the Glinda
// ICS'14 weighted pipeline (imbalance detection, weight-balanced
// split, weight-equal CPU chunks) against the naive uniform model and
// the dynamic strategies.
func ImbalancedApp(env *Env) (*Table, error) {
	plat := env.Plat
	t := &Table{ID: "triangular", Title: "Imbalanced workload: packed triangular reduction (extension)",
		Columns: []string{"strategy", "time (ms)", "GPU elem share"}}
	strats := []string{"Only-GPU", "Only-CPU", "SP-Single", "DP-Perf", "DP-Dep"}
	res, err := env.timesFor("Triangular", apps.SyncDefault, strats)
	if err != nil {
		return nil, err
	}
	for _, sname := range strats {
		out := res[sname]
		t.AddRow(sname, ms(out.Result.Makespan), pct(out.GPURatio()))
	}

	// Naive baseline: the uniform (linear) model with element-equal
	// CPU chunks — what SP-Single would do without imbalance
	// detection.
	app, _ := apps.ByName("Triangular")
	p, err := app.Build(apps.Variant{Spaces: 1 + len(plat.Accels)})
	if err != nil {
		return nil, err
	}
	k := p.Unique[0]
	dec, err := glinda.Analyze(plat, p.Dir, k, 1, glinda.Config{})
	if err != nil {
		return nil, err
	}
	m := plat.CPUThreads()
	var plan task.Plan
	if dec.NG > 0 {
		plan.Submit(k, 0, dec.NG, 1, -1)
	}
	chunk := (k.Size - dec.NG + int64(m) - 1) / int64(m)
	for at := dec.NG; at < k.Size; at += chunk {
		end := at + chunk
		if end > k.Size {
			end = k.Size
		}
		plan.Submit(k, at, end, 0, -1)
	}
	plan.Barrier()
	naive, err := rt.Execute(rt.Config{Platform: plat, Scheduler: sched.NewStatic()}, &plan, p.Dir)
	if err != nil {
		return nil, err
	}
	t.AddRow("SP-naive (uniform model)", ms(naive.Makespan), pct(naive.GPURatio()))

	t.AddCheck("the weighted SP-Single is the best strategy", fastest(res) == "SP-Single", "")
	t.AddCheck("the weighted pipeline beats the uniform model",
		res["SP-Single"].Result.Makespan < naive.Makespan,
		fmt.Sprintf("%.1f vs %.1f ms", res["SP-Single"].Result.Makespan.Milliseconds(), naive.Makespan.Milliseconds()))
	t.AddCheck("Table I's SK-One ordering holds on the imbalanced workload",
		res["SP-Single"].Result.Makespan <= res["DP-Perf"].Result.Makespan &&
			res["DP-Perf"].Result.Makespan <= res["DP-Dep"].Result.Makespan*105/100, "")
	return t, nil
}
