package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"heteropart/internal/device"
	"heteropart/internal/exp"
	"heteropart/internal/metrics"
	"heteropart/internal/runner"
	"heteropart/internal/telemetry"
)

// paperDoc is the committed report every pass must reproduce, read
// from the checkout root the benchmark runs in.
const paperDoc = "EXPERIMENTS.md"

// paperThreads is the paper platform's CPU thread count the committed
// report was generated with (cmd/experiments -m default).
const paperThreads = 12

// paperState is the paper-sweep set-up: the platform and the expected
// report, and the environment of the latest pass, kept reachable so the
// live heap measured after a phase includes its runner and caches.
type paperState struct {
	plat *device.Platform
	want string
	env  *exp.Env
}

// pass regenerates the full report cold, through a fresh environment
// whose runner has the benchmark's worker width.
func (st *paperState) pass(cfg runner.Config) error {
	cfg.Workers = width()
	st.env = &exp.Env{Plat: st.plat, R: runner.New(cfg)}
	doc, err := exp.MarkdownReportEnv(st.env)
	if err != nil {
		return err
	}
	if doc != st.want {
		return fmt.Errorf("regenerated report differs from %s", paperDoc)
	}
	return nil
}

// paperSetup reads the expected report and runs one warm-up pass.
func paperSetup() (*paperState, error) {
	want, err := os.ReadFile(paperDoc)
	if err != nil {
		return nil, err
	}
	st := &paperState{plat: device.PaperPlatform(paperThreads), want: string(want)}
	return st, st.pass(runner.Config{})
}

// tracedPass runs one pass with a metrics registry and a fresh span
// tracer attached to its runner and returns the pass's spans.
func (st *paperState) tracedPass(reg *metrics.Registry) ([]telemetry.Span, time.Duration, error) {
	tr := telemetry.New()
	t0 := time.Now()
	err := st.pass(runner.Config{Metrics: reg, Spans: tr})
	return tr.Spans(), time.Since(t0), err
}

// untracedPhase runs cold passes until the phase length has elapsed.
func (st *paperState) untracedPhase(length time.Duration, t *tally) *phase {
	ph := &phase{windows: phaseWindows, samePasses: true}
	start, cpu0 := time.Now(), cpuTime()
	for time.Since(start) < length {
		p0 := time.Now()
		err := st.pass(runner.Config{})
		t.add(err)
		ph.passMs = append(ph.passMs, ms(time.Since(p0)))
	}
	ph.wall, ph.cpu = time.Since(start), cpuTime()-cpu0
	ph.ops = len(ph.passMs)
	// One pass is one request of the closed-loop caller.
	ph.reqMs = ph.passMs
	return ph
}

// paperProbe is the paper-sweep set-up as a cold process does it.
func paperProbe(options) (func(), error) {
	_, err := paperSetup()
	return func() {}, err
}

func paperMeasure(o options) (map[string]float64, tally, error) {
	st, err := paperSetup()
	if err != nil {
		return nil, tally{}, err
	}
	var t tally
	ph := st.untracedPhase(o.seconds, &t)
	ph.heapMiB = liveHeapMiB()
	runtime.KeepAlive(st.env)
	// A pass's work counts are exact; take them from one traced pass
	// after the timed phase.
	reg := metrics.NewRegistry()
	spans, _, err := st.tracedPass(reg)
	t.add(err)
	c := readCounters(reg)
	n := float64(len(ph.passMs))
	ph.runs, ph.instances = n*c.runs, n*spanCount(spans, telemetry.KindChunk, 0)
	return ph.endToEndMetrics(t), t, nil
}

// perRunMs converts pass times to the cost of one run: a pass's runs
// share the pool, so a run costs the pass's worker time divided by its
// runs.
func perRunMs(passMs []float64, runs float64) []float64 {
	out := make([]float64, len(passMs))
	for i, d := range passMs {
		out[i] = d * float64(width()) / runs
	}
	return out
}

func paperTraced(o options) (map[string]float64, tally, error) {
	st, err := paperSetup()
	if err != nil {
		return nil, tally{}, err
	}
	var t tally
	p0 := readProc()
	ref := st.untracedPhase(o.seconds/2, &t)
	p1 := readProc()

	var (
		reg                            = metrics.NewRegistry() // shared: counts add up over passes
		decide, execute, busy, wallSum time.Duration
		profiles, decisions            float64
		passes                         int
	)
	start := time.Now()
	for time.Since(start) < o.seconds {
		spans, wall, err := st.tracedPass(reg)
		t.add(err)
		passes++
		wallSum += wall
		decide += spanWall(spans, telemetry.KindPlan, 0)
		execute += spanWall(spans, telemetry.KindExecute, 0)
		busy += spanWall(spans, telemetry.KindRun, 0)
		profiles += spanCount(spans, telemetry.KindProfile, 0)
		decisions += spanCount(spans, telemetry.KindDecide, 0)
	}
	sum := readCounters(reg)
	ref.runMs = perRunMs(ref.passMs, sum.runs/float64(passes))
	m := layerDefaults()
	ref.latencies(m)
	runnerMetrics(m, sum, decide, execute, busy, wallSum, width())
	m["glinda.profiles"] = profiles / float64(passes)
	m["sched.decisions"] = decisions / float64(passes)
	m["runner.runs"] = sum.runs / float64(passes)
	procMetrics(m, p0, p1, len(ref.passMs))
	m["trace.overhead_ratio"] = (wallSum.Seconds() / float64(passes)) / (ref.wall.Seconds() / float64(len(ref.passMs)))
	info("traced: %d passes in %.2fs; reference: %d passes in %.2fs",
		passes, time.Since(start).Seconds(), len(ref.passMs), ref.wall.Seconds())
	return m, t, nil
}

// counters are the runner and service counters of a metrics registry.
type counters struct {
	runs, hits, misses, planHits, planMisses float64
	coalesceHits, coalesceMisses, rejected   float64
}

func readCounters(reg *metrics.Registry) counters {
	v := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	return counters{
		runs: v("runner_runs_total"), hits: v("runner_cache_hits_total"), misses: v("runner_cache_misses_total"),
		planHits: v("plan_cache_hits_total"), planMisses: v("plan_cache_misses_total"),
		coalesceHits: v("service_coalesce_hits_total"), coalesceMisses: v("service_coalesce_misses_total"),
		rejected: v("service_rejected_total"),
	}
}

// minus subtracts an earlier reading.
func (a counters) minus(b counters) counters {
	return counters{
		runs: a.runs - b.runs, hits: a.hits - b.hits, misses: a.misses - b.misses,
		planHits: a.planHits - b.planHits, planMisses: a.planMisses - b.planMisses,
		coalesceHits: a.coalesceHits - b.coalesceHits, coalesceMisses: a.coalesceMisses - b.coalesceMisses,
		rejected: a.rejected - b.rejected,
	}
}

// runnerMetrics fills the layer metrics a runner's counters and spans
// give: decide and execute time per executed run, cache hit ratios,
// and pool utilization (run span time over workers × wall time).
func runnerMetrics(m map[string]float64, c counters, decide, execute, busy, wall time.Duration, workers int) {
	if c.runs > 0 {
		m["glinda.decide_ms"] = ms(decide) / c.runs
		m["rt.execute_ms"] = ms(execute) / c.runs
	}
	if n := c.hits + c.misses; n > 0 {
		m["runner.cache_hit_ratio"] = c.hits / n
	}
	if n := c.planHits + c.planMisses; n > 0 {
		m["runner.plan_cache_hit_ratio"] = c.planHits / n
	}
	if wall > 0 {
		m["runner.pool_util"] = busy.Seconds() / (float64(workers) * wall.Seconds())
	}
}

// spanCount counts the spans of one kind recorded from index from on.
func spanCount(spans []telemetry.Span, k telemetry.Kind, from int) float64 {
	n := 0
	for _, s := range spans[from:] {
		if s.Kind == k {
			n++
		}
	}
	return float64(n)
}

// spanWall sums the wall time of the spans of one kind recorded from
// index from on.
func spanWall(spans []telemetry.Span, k telemetry.Kind, from int) time.Duration {
	var d int64
	for _, s := range spans[from:] {
		if s.Kind == k {
			d += s.WallDur()
		}
	}
	return time.Duration(d)
}
