package exp

import (
	"fmt"
	"math"

	"heteropart/internal/analyzer"
	"heteropart/internal/apps"
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/glinda"
	"heteropart/internal/runner"
	"heteropart/internal/sim"
)

// table1Cases are the application variants Table 1 validates.
var table1Cases = []struct {
	app  string
	sync apps.SyncMode
}{
	{"MatrixMul", apps.SyncDefault},
	{"BlackScholes", apps.SyncDefault},
	{"Nbody", apps.SyncDefault},
	{"HotSpot", apps.SyncDefault},
	{"STREAM-Seq", apps.SyncNone},
	{"STREAM-Seq", apps.SyncForced},
	{"STREAM-Loop", apps.SyncNone},
	{"STREAM-Loop", apps.SyncForced},
}

// Table1 validates the performance ranking of Table I empirically: for
// every application variant, run all suitable strategies and check the
// measured ordering against the theoretical one (Section IV-B5: "The
// performance ranking ... matches the theoretical ranking"). The runs
// come from the shared runner, so the figures' cached runs serve them.
func Table1(env *Env) (*Table, error) {
	t := &Table{ID: "table1", Title: "Suitable strategies: theoretical vs empirical ranking",
		Columns: []string{"app", "class", "sync", "theoretical", "empirical", "match"}}
	allMatch := true
	for _, c := range table1Cases {
		val, err := table1Case(env, c.app, c.sync)
		if err != nil {
			return nil, err
		}
		match := "yes"
		if !val.Matches {
			match = "NO"
			allMatch = false
		}
		sync := "w/o"
		if val.NeedsSync {
			sync = "w"
		}
		t.AddRow(c.app, val.Class.String(), sync,
			join(val.Ranked), join(val.Empirical), match)
	}
	t.AddCheck("the empirical ranking matches the theoretical ranking for every application",
		allMatch, "")
	return t, nil
}

// table1Case is analyzer.ValidateRanking with the runs fetched through
// the environment's runner.
func table1Case(env *Env, appName string, sync apps.SyncMode) (*analyzer.Validation, error) {
	app, err := apps.ByName(appName)
	if err != nil {
		return nil, err
	}
	probe, err := app.Build(apps.Variant{Sync: sync, Spaces: 1 + len(env.Plat.Accels)})
	if err != nil {
		return nil, err
	}
	rep, err := analyzer.Analyze(probe)
	if err != nil {
		return nil, err
	}
	res, err := env.timesFor(appName, sync, rep.Ranked)
	if err != nil {
		return nil, err
	}
	times := make(map[string]sim.Duration, len(res))
	for name, out := range res {
		times[name] = out.Result.Makespan
	}
	return analyzer.Rank(rep, times), nil
}

func join(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " > "
		}
		out += n
	}
	return out
}

// Table2 reproduces the application table: each evaluation application
// classified by the analyzer.
func Table2(env *Env) (*Table, error) {
	plat := env.Plat
	t := &Table{ID: "table2", Title: "Applications for evaluation",
		Columns: []string{"application", "class (paper)", "class (classifier)", "origin"}}
	expected := []struct {
		app    string
		class  classify.Class
		origin string
	}{
		{"MatrixMul", classify.SKOne, "Nvidia OpenCL SDK"},
		{"BlackScholes", classify.SKOne, "Nvidia OpenCL SDK"},
		{"Nbody", classify.SKLoop, "Mont-Blanc benchmark suite"},
		{"HotSpot", classify.SKLoop, "Rodinia benchmark suite"},
		{"STREAM-Seq", classify.MKSeq, "The STREAM benchmark"},
		{"STREAM-Loop", classify.MKLoop, "The STREAM benchmark"},
	}
	all := true
	for _, e := range expected {
		app, err := apps.ByName(e.app)
		if err != nil {
			return nil, err
		}
		p, err := app.Build(apps.Variant{N: 512, Iters: 2, Spaces: 1 + len(plat.Accels)})
		if err != nil {
			return nil, err
		}
		got := p.Class()
		if got != e.class {
			all = false
		}
		t.AddRow(e.app, e.class.String(), got.String(), e.origin)
	}
	t.AddCheck("the classifier assigns every application its Table II class", all, "")
	return t, nil
}

// Table3 renders the modeled platform against the paper's hardware
// table.
func Table3(env *Env) (*Table, error) {
	plat := env.Plat
	t := &Table{ID: "table3", Title: "The hardware components of the platform",
		Columns: []string{"property", plat.Host.Name, accelName(plat)}}
	add := func(prop, c, g string) { t.AddRow(prop, c, g) }
	h := plat.Host
	add("Frequency (GHz)", f1(h.FreqGHz), accelProp(plat, func(d *device.Device) string { return f1(d.FreqGHz) }))
	add("#Cores", fmt.Sprintf("%d (%d as HT enabled)", h.Cores, h.Threads()),
		accelProp(plat, func(d *device.Device) string { return fmt.Sprintf("%d", d.Cores) }))
	add("Peak GFLOPS (SP/DP)", fmt.Sprintf("%.1f/%.1f", h.PeakSPGFLOPS, h.PeakDPGFLOPS),
		accelProp(plat, func(d *device.Device) string {
			return fmt.Sprintf("%.1f/%.1f", d.PeakSPGFLOPS, d.PeakDPGFLOPS)
		}))
	add("Memory capacity (GB)", f1(h.MemCapacityGB),
		accelProp(plat, func(d *device.Device) string { return f1(d.MemCapacityGB) }))
	add("Peak memory bandwidth (GB/s)", f1(h.MemBWGBps),
		accelProp(plat, func(d *device.Device) string { return f1(d.MemBWGBps) }))
	if len(plat.Accels) > 0 {
		l := plat.LinkOf(1)
		add("Host link (GB/s, effective)", "-", f1(l.HtoDGBps))
	}
	t.AddCheck("the datasheet peaks match Table III",
		h.PeakSPGFLOPS == 384.0 && len(plat.Accels) > 0 && plat.Accels[0].PeakSPGFLOPS == 3519.3,
		"Xeon E5-2620 + Tesla K20m")
	return t, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func accelName(plat *device.Platform) string {
	if len(plat.Accels) == 0 {
		return "(none)"
	}
	return plat.Accels[0].Name
}

func accelProp(plat *device.Platform, f func(*device.Device) string) string {
	if len(plat.Accels) == 0 {
		return "-"
	}
	return f(plat.Accels[0])
}

// Study86 reproduces the Section III-B coverage claim over the
// reconstructed 86-application catalog.
func Study86(*Env) (*Table, error) {
	t := &Table{ID: "study86", Title: "Kernel-structure study (reconstructed catalog)",
		Columns: []string{"class", "applications"}}
	cov, err := classify.CoverageByClass()
	if err != nil {
		return nil, err
	}
	total := 0
	for c := classify.SKOne; c <= classify.MKDAG; c++ {
		t.AddRow(c.String(), fmt.Sprintf("%d", cov[c]))
		total += cov[c]
	}
	t.AddRow("total", fmt.Sprintf("%d", total))
	t.AddCheck("the five classes cover all 86 applications", total == 86, "")
	nonEmpty := true
	for c := classify.SKOne; c <= classify.MKDAG; c++ {
		if cov[c] == 0 {
			nonEmpty = false
		}
	}
	t.AddCheck("every class is populated", nonEmpty, "")
	return t, nil
}

// Convert demonstrates the Discussion-section recipe: a dynamic
// implementation pinned by the converted static ratio lands close to
// the true static strategy and well ahead of plain dynamic scheduling.
func Convert(env *Env) (*Table, error) {
	t := &Table{ID: "convert", Title: "Making dynamic partitioning behave like static (Section V)",
		Columns: []string{"app", "strategy", "time (ms)"}}
	for _, appName := range []string{"BlackScholes", "Nbody"} {
		res, err := env.timesFor(appName, apps.SyncDefault, []string{"SP-Single", "DP-Perf"})
		if err != nil {
			return nil, err
		}
		conv, err := env.runOne(appName, apps.SyncDefault, "DP-Converted")
		if err != nil {
			return nil, err
		}
		t.AddRow(appName, "SP-Single", ms(res["SP-Single"].Result.Makespan))
		t.AddRow(appName, "DP-Converted", ms(conv.Result.Makespan))
		t.AddRow(appName, "DP-Perf", ms(res["DP-Perf"].Result.Makespan))
		closeToStatic := float64(conv.Result.Makespan) <= 1.15*float64(res["SP-Single"].Result.Makespan)
		t.AddCheck(appName+": the conversion gets close-to-optimal partitioning", closeToStatic,
			fmt.Sprintf("%.0f%% of SP-Single",
				100*float64(conv.Result.Makespan)/float64(res["SP-Single"].Result.Makespan)))
	}
	return t, nil
}

// TaskSize sweeps the dynamic task count (the granularity knob of
// Section V: "the task size variation leads to performance variation;
// auto-tuning is recommended").
func TaskSize(env *Env) (*Table, error) {
	t := &Table{ID: "tasksize", Title: "Task-size sensitivity of dynamic partitioning (BlackScholes, DP-Perf)",
		Columns: []string{"task instances (m)", "time (ms)"}}
	chunks := []int{6, 12, 24, 48, 96}
	specs := make([]runner.Spec, len(chunks))
	for i, m := range chunks {
		specs[i] = runner.Spec{App: "BlackScholes", Strategy: "DP-Perf", Chunks: m, Plat: env.Plat}
	}
	results, err := env.R.RunAll(specs)
	if err != nil {
		return nil, err
	}
	best, worst := math.Inf(1), 0.0
	for i, res := range results {
		v := res.Outcome.Result.Makespan.Milliseconds()
		if v < best {
			best = v
		}
		if v > worst {
			worst = v
		}
		t.AddRow(fmt.Sprintf("%d", chunks[i]), ms(res.Outcome.Result.Makespan))
	}
	t.AddCheck("task size variation leads to performance variation", worst > best*1.02,
		fmt.Sprintf("spread %.0f%%", 100*(worst-best)/best))
	return t, nil
}

// MultiAccel exercises the multi-accelerator extension (the paper's
// future work): Glinda's water-filling split across a CPU, a K20m and
// a Xeon-Phi-like accelerator.
func MultiAccel(*Env) (*Table, error) {
	plat3, err := device.NewPlatform(device.XeonE5_2620(), 12,
		device.Attachment{Model: device.TeslaK20m(), Link: device.PCIeGen2x16()},
		device.Attachment{Model: device.XeonPhi5110P(), Link: device.PCIeGen3x16()},
	)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "multiaccel", Title: "Multi-accelerator partitioning (extension)",
		Columns: []string{"device", "share"}}

	app, err := apps.ByName("BlackScholes")
	if err != nil {
		return nil, err
	}
	p, err := app.Build(apps.Variant{Spaces: 3})
	if err != nil {
		return nil, err
	}
	k := p.Unique[0]
	var accels []glinda.Estimate
	var rc float64
	for id := 1; id <= 2; id++ {
		est, err := glinda.Profile(plat3, p.Dir, k, id, glinda.Config{})
		if err != nil {
			return nil, err
		}
		rc = est.Rc
		accels = append(accels, est)
	}
	shares, err := glinda.SolveMulti(rc, accels, k.Size)
	if err != nil {
		return nil, err
	}
	names := []string{plat3.Host.Name, plat3.Accels[0].Name, plat3.Accels[1].Name}
	var total int64
	for i, s := range shares {
		t.AddRow(names[i], fmt.Sprintf("%d (%s)", s, pct(float64(s)/float64(k.Size))))
		total += s
	}
	t.AddCheck("the shares cover the whole problem", total == k.Size, "")
	t.AddCheck("every device receives work", shares[0] > 0 && shares[1] > 0 && shares[2] > 0, "")
	return t, nil
}

// Imbalance exercises the imbalanced-workload extension (Glinda
// ICS'14): a triangular per-element weight profile moves the split
// point past the uniform one.
func Imbalance(*Env) (*Table, error) {
	t := &Table{ID: "imbalance", Title: "Imbalanced-workload partitioning (extension)",
		Columns: []string{"weight profile", "split point", "GPU share of elements"}}
	n := int64(1 << 20)
	// Prefix sums of weight 1 and of weight i+1 per element i, in
	// closed form (exact in float64 at this n).
	uniform := func(i int64) float64 { return float64(i) }
	ascending := func(i int64) float64 { return float64(i * (i + 1) / 2) }
	// Synthetic rates: GPU 4x the CPU in weight units.
	rg, rc := 4.0e9, 1.0e9
	su, err := glinda.SolveImbalancedFunc(n, uniform, rg, rc, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	sa, err := glinda.SolveImbalancedFunc(n, ascending, rg, rc, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	t.AddRow("uniform", fmt.Sprintf("%d", su), pct(float64(su)/float64(n)))
	t.AddRow("ascending (heavy tail on CPU side)", fmt.Sprintf("%d", sa), pct(float64(sa)/float64(n)))
	t.AddCheck("uniform weights reproduce the balanced split (~80%)",
		math.Abs(float64(su)/float64(n)-0.8) < 0.01, "")
	t.AddCheck("imbalance moves the split point (GPU takes more light elements)",
		sa > su, "")
	return t, nil
}
