package exp

import (
	"fmt"
	"strings"

	"heteropart/internal/device"
	"heteropart/internal/metrics"
	"heteropart/internal/runner"
)

// summaryRows maps paper artifacts to their reproduction status for
// the EXPERIMENTS.md summary. Status text is static (the claims are
// enforced by each experiment's checks; a failing check fails the
// report).
var summaryRows = [][2]string{
	{"Table I", "empirical strategy ranking matches the theoretical ranking for all 8 app variants"},
	{"Table II", "the classifier assigns every evaluation app its class"},
	{"Table III", "platform datasheet values (by construction)"},
	{"Fig 5a", "MatrixMul: OG ≫ OC; SP-Single best at ~90/10; DP-Perf ≈ all-GPU; DP-Dep leaves 1 instance on the GPU"},
	{"Fig 5b", "BlackScholes: SP-Single best at 41%/59% CPU/GPU; DP-Perf overassigns the GPU"},
	{"Fig 6", "SK-One partitioning ratios"},
	{"Fig 7a", "Nbody: SP-Single best, GPU-leaning (~80%)"},
	{"Fig 7b", "HotSpot: Only-GPU loses to Only-CPU (transfers); SP-Single best, CPU-leaning"},
	{"Fig 8", "SK-Loop partitioning ratios"},
	{"Fig 9", "STREAM-Seq: SP-Unified best w/o sync (~44-49% GPU); SP-Varied best w/ sync; sync degrades dynamic partitioning"},
	{"Fig 10", "MK-Seq ratios incl. per-kernel SP-Varied points"},
	{"Fig 11", "STREAM-Loop: Only-GPU beats Only-CPU; SP-Unified best w/o sync; SP-Varied best w/ sync; SP-Unified-w worst"},
	{"Fig 12", "best strategy never loses to a single device; meaningful average speedups"},
	{"§III-B study", "5 classes cover 86 apps across 5 suites (reconstructed catalog)"},
	{"§V conversion", "dynamic-behaves-static lands close to SP-*"},
	{"§V granularity", "task-size variation moves dynamic performance; auto-tuner picks the minimum"},
	{"§VII / extensions", "multi-accelerator water-filling, imbalanced workloads end to end (Triangular), MK-DAG refinement, implements clause, platform & dataset sensitivity, ablations"},
}

// MarkdownReport runs every experiment sequentially and renders the
// complete EXPERIMENTS.md document: preamble, summary table, then the
// raw regenerated tables with their paper-claim checks.
func MarkdownReport(plat *device.Platform) (string, error) {
	return MarkdownReportEnv(envFor(plat))
}

// MarkdownReportEnv renders the same document through the
// environment's sweep runner: the experiments (and the sweeps inside
// them) shard over the worker pool, and the assembled document is
// byte-identical to the sequential MarkdownReport.
func MarkdownReportEnv(env *Env) (string, error) {
	plat := env.Plat
	var b strings.Builder
	b.WriteString(`# EXPERIMENTS — paper vs measured

This file records, for every table and figure of the paper's evaluation
(Section IV), what the paper reports and what this reproduction
measures. Regenerate it at any time with:

    go run ./cmd/experiments -report > EXPERIMENTS.md

All timings are **virtual milliseconds** from the discrete-event
simulator (see DESIGN.md §2 — the platform is a calibrated model of the
paper's Xeon E5-2620 + Tesla K20m, not the physical testbed). Absolute
numbers are therefore not comparable to the paper's; the *shapes* —
which strategy wins, which device dominates, where the orderings flip —
are, and each experiment below carries explicit PASS/FAIL checks for
the paper's qualitative claims. Known deviations are discussed in
DESIGN.md §4.

## Summary

| Paper artifact | Claim | Status |
|---|---|---|
`)
	exps := All()
	tables, err := RunExperiments(env, exps)
	if err != nil {
		return "", err
	}
	results := make(map[string]*Table)
	allPass := true
	for i, e := range exps {
		results[e.ID] = tables[i]
		if !tables[i].AllPass() {
			allPass = false
		}
	}
	status := "reproduced"
	if !allPass {
		status = "SEE FAILURES BELOW"
	}
	for _, row := range summaryRows {
		fmt.Fprintf(&b, "| %s | %s | %s |\n", row[0], row[1], status)
	}
	fmt.Fprintf(&b, "\nPlatform: %s\n\n", plat)

	for _, e := range exps {
		tab := results[e.ID]
		fmt.Fprintf(&b, "## %s — %s\n\n", tab.ID, tab.Title)
		fmt.Fprintf(&b, "```\n%s```\n\n", tab.Render())
	}
	appendix, err := metricsAppendix(env)
	if err != nil {
		return "", err
	}
	b.WriteString(appendix)
	return b.String(), nil
}

// metricsAppendix runs the analyzer-selected strategy for each
// evaluation application with a metrics registry attached and renders
// the collected execution telemetry. Only virtual-time series appear
// here (the registry also carries wall-clock gauges, which would break
// the report's byte-for-byte determinism).
func metricsAppendix(env *Env) (string, error) {
	plat := env.Plat
	var b strings.Builder
	b.WriteString(`## Appendix — execution metrics

Runtime telemetry of the analyzer-selected strategy per evaluation
application (see DESIGN.md §8 for the full series catalog; the same
data is available from any run via ` + "`hetsim -metrics`" + `).

| App | Strategy | Makespan (ms) | Tasks host/accel | HtoD (MB) | DtoH (MB) | Decisions | Decision overhead (µs) | Taskwaits |
|---|---|---|---|---|---|---|---|---|
`)
	appNames := []string{"MatrixMul", "BlackScholes", "Nbody", "HotSpot",
		"STREAM-Seq", "STREAM-Loop"}
	specs := make([]runner.Spec, len(appNames))
	for i, name := range appNames {
		specs[i] = runner.Spec{App: name, WithMetrics: true, Plat: env.Plat}
	}
	rs, err := env.R.RunAll(specs)
	if err != nil {
		return "", fmt.Errorf("exp: metrics appendix: %w", err)
	}
	for i, name := range appNames {
		out := rs[i].Outcome
		snap := rs[i].Metrics.Snapshot(out.Result.Makespan)
		get := func(series string) float64 {
			pt, _ := snap.Get(series)
			return pt.Value
		}
		var accelTasks float64
		for d := 1; d <= len(plat.Accels); d++ {
			accelTasks += get(metrics.Label("rt_tasks_total", "dev", fmt.Sprintf("%d", d)))
		}
		fmt.Fprintf(&b, "| %s | %s | %.1f | %.0f/%.0f | %.1f | %.1f | %.0f | %.0f | %.0f |\n",
			name, out.Strategy, out.Result.Makespan.Milliseconds(),
			get(metrics.Label("rt_tasks_total", "dev", "0")), accelTasks,
			get(metrics.Label("rt_transfer_bytes_total", "dir", "htod"))/1e6,
			get(metrics.Label("rt_transfer_bytes_total", "dir", "dtoh"))/1e6,
			get("rt_decisions_total"),
			get("rt_decision_overhead_ns_total")/1e3,
			get("rt_taskwaits_total"))
	}
	b.WriteByte('\n')
	planCache, err := planCacheSection(env)
	if err != nil {
		return "", err
	}
	b.WriteString(planCache)
	return b.String(), nil
}

// planCacheSizes are the plan-cache demonstration's BlackScholes
// sizes. The counters it prints do not depend on n, so the sizes stay
// small; the largest passes one 15840-option input period, so the
// compute-mode check still crosses the reference's wrap.
var planCacheSizes = []int64{1 << 12, 1 << 13, 1 << 14}

// planCacheSection demonstrates the decide/execute split's caching on
// a small sweep: points that differ only in what they observe share
// one decided plan. The counter table is deterministic (virtual-time
// simulation, single-flight counters); the wall-clock sentence quotes
// the repo benchmark and is indicative only.
func planCacheSection(env *Env) (string, error) {
	rs, reg, err := planCacheSweep(env, planCacheSizes)
	if err != nil {
		return "", err
	}
	return planCacheReport(rs, reg)
}

// planCacheSweep runs the demonstration's sweep — per size, a plain,
// a traced and a compute-mode SP-Single point — through a private
// runner whose registry it returns.
func planCacheSweep(env *Env, sizes []int64) ([]*runner.Result, *metrics.Registry, error) {
	reg := metrics.NewRegistry()
	r := runner.New(runner.Config{Workers: env.R.Workers(), Metrics: reg})
	var specs []runner.Spec
	for _, n := range sizes {
		specs = append(specs,
			runner.Spec{App: "BlackScholes", Strategy: "SP-Single", N: n, Plat: env.Plat},
			runner.Spec{App: "BlackScholes", Strategy: "SP-Single", N: n, Plat: env.Plat, CollectTrace: true},
			runner.Spec{App: "BlackScholes", Strategy: "SP-Single", N: n, Plat: env.Plat, Compute: true},
		)
	}
	rs, err := r.RunAll(specs)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: plan-cache section: %w", err)
	}
	return rs, reg, nil
}

// planCacheReport verifies every compute-mode result of the sweep
// against its sequential reference, failing on the first mismatch,
// and renders the section from the sweep's counters.
func planCacheReport(rs []*runner.Result, reg *metrics.Registry) (string, error) {
	for _, res := range rs {
		if !res.Spec.Compute {
			continue
		}
		if res.Verify == nil {
			return "", fmt.Errorf("exp: plan-cache section: %s n=%d: compute-mode result has no Verify", res.Spec, res.Spec.N)
		}
		if err := res.Verify(); err != nil {
			return "", fmt.Errorf("exp: plan-cache section: %s n=%d: %w", res.Spec, res.Spec.N, err)
		}
	}
	snap := reg.Snapshot(0)
	get := func(series string) float64 {
		pt, _ := snap.Get(series)
		return pt.Value
	}
	var b strings.Builder
	b.WriteString(`### Plan-cache reuse

Decisions are cached separately from results (DESIGN.md §9-10): sweep
points that differ only in what an execution observes — compute mode,
tracing — share one decided ` + "`ExecutionPlan`" + ` instead of re-running
the Glinda profiling probes. A BlackScholes size sweep with three
observation variants per size:

| Sweep points | Executions | Plans decided | Plans reused |
|---|---|---|---|
`)
	fmt.Fprintf(&b, "| %d | %.0f | %.0f | %.0f |\n",
		len(rs), get("runner_runs_total"),
		get("plan_cache_misses_total"), get("plan_cache_hits_total"))
	b.WriteString(`
Wall-clock effect on this sweep shape (` + "`go test -bench BenchmarkSizeSweep ./internal/runner/`" + `,
4 sizes × 3 variants, 4 workers): ~263 ms per cold pass with the plan
cache vs ~316 ms without (1.2×) — 8 of 12 profiling rounds skipped.
Host-dependent, indicative only; the counter table above is exact.
`)
	return b.String(), nil
}
