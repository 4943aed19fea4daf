package main

import (
	"runtime"
	"time"
)

// unit names one reported metric, its unit and which direction is
// better. BENCHMARK.json lists the same names and units (a test keeps
// the two in step).
type unit struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (manifest.json says what each means there).
var endToEnd = []unit{
	{"setup_s", "s", "lower"},
	{"runs_per_s", "1/s", "higher"},
	{"chunks_per_s", "1/s", "higher"},
	{"pass_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"heap_live_mib", "MiB", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0. The run and request latencies are end-to-end
// figures reported here, from the traced run's untraced reference
// phase, because their spread between runs on a shared two-CPU host is
// wider than any bound a regression gate can hold.
var perLayer = []unit{
	{"run_p50_ms", "ms", "lower"},
	{"run_p90_ms", "ms", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"req_p99_ms", "ms", "lower"},
	{"glinda.decide_ms", "ms", "lower"},
	{"glinda.profiles", "count", "lower"},
	{"plan.materialize_ms", "ms", "lower"},
	{"task.builddeps_ms", "ms", "lower"},
	{"task.edges", "count", "lower"},
	{"task.builddeps_exp", "exponent", "lower"},
	{"mem.replay_ms", "ms", "lower"},
	{"mem.ops", "count", "lower"},
	{"mem.transfers", "count", "lower"},
	{"mem.transfer_mib", "MiB", "lower"},
	{"rt.execute_ms", "ms", "lower"},
	{"rt.self_ms", "ms", "lower"},
	{"rt.execute_exp", "exponent", "lower"},
	{"sched.decisions", "count", "lower"},
	{"runner.runs", "count", "lower"},
	{"runner.cache_hit_ratio", "ratio", "higher"},
	{"runner.plan_cache_hit_ratio", "ratio", "higher"},
	{"runner.pool_util", "ratio", "higher"},
	{"service.hit_p50_ms", "ms", "lower"},
	{"service.hit_p99_ms", "ms", "lower"},
	{"service.miss_p50_ms", "ms", "lower"},
	{"service.miss_p99_ms", "ms", "lower"},
	{"service.coalesce_hit_ratio", "ratio", "higher"},
	{"service.rejected", "count", "lower"},
	{"service.flights", "count", "lower"},
	{"service.heap_kib_per_distinct", "KiB", "lower"},
	{"proc.alloc_mib_per_op", "MiB", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// layerDefaults returns every per-layer metric at 0, for a workload to
// overwrite the ones it measures.
func layerDefaults() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, u := range perLayer {
		m[u.name] = 0
	}
	return m
}

// phase collects one timed phase's samples, from which the end-to-end
// metrics follow.
type phase struct {
	wall      time.Duration
	runs      float64 // simulation runs completed
	instances float64 // task instances those runs simulated
	// samePasses is set when every pass does the same work: the rates
	// then follow from the median pass time rather than from the
	// phase's wall time, so a stall that hits a few passes cannot move
	// them.
	samePasses bool
	ops        int           // operations completed
	cpu        time.Duration // process CPU time over the phase
	// Latency samples in the order they were taken.
	runMs, passMs, reqMs []float64
	// windows is how many equal consecutive stretches each series is
	// cut into; a percentile is the median of its per-window values,
	// so a stall that hits one stretch of the phase cannot move it.
	windows int
	heapMiB float64
}

// phaseWindows is the window count of phases whose samples are not
// grouped in passes.
const phaseWindows = 5

// latencies fills the run and request latencies the traced run
// reports for its reference phase.
func (ph *phase) latencies(m map[string]float64) {
	ph.describe("run", ph.runMs)
	ph.describe("req", ph.reqMs)
	m["run_p50_ms"] = windowed(ph.runMs, 50, ph.windows)
	m["run_p90_ms"] = windowed(ph.runMs, 90, ph.windows)
	m["req_p50_ms"] = windowed(ph.reqMs, 50, ph.windows)
	m["req_p99_ms"] = windowed(ph.reqMs, 99, ph.windows)
}

// endToEndMetrics renders a phase and its tally; the caller adds
// setup_s.
func (ph *phase) endToEndMetrics(t tally) map[string]float64 {
	ok := 0.0
	if t.attempted > 0 {
		ok = float64(t.attempted-t.failed) / float64(t.attempted)
	}
	ph.describe("pass", ph.passMs)
	passMs := windowed(ph.passMs, 50, ph.windows)
	runs, instances, seconds := ph.runs, ph.instances, ph.wall.Seconds()
	if ph.samePasses {
		n := float64(len(ph.passMs))
		runs, instances, seconds = runs/n, instances/n, passMs/1000
	}
	return map[string]float64{
		"runs_per_s":    runs / seconds,
		"chunks_per_s":  instances / seconds,
		"pass_p50_ms":   passMs,
		"cpu_ms_per_op": ms(ph.cpu) / float64(max(ph.ops, 1)),
		"ok_ratio":      ok,
		"heap_live_mib": ph.heapMiB,
	}
}

// describe prints a latency series' sample count, its windows and the
// tail percentile one window's sample count supports.
func (ph *phase) describe(name string, xs []float64) {
	k := max(ph.windows, 1)
	info("%s: n=%d in %d windows, supported tail per window p%g, overall p%g",
		name, len(xs), k, tailPercentile(len(xs)/k), tailPercentile(len(xs)))
}

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procStats snapshots the allocator and collector counters.
type procStats struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// procMetrics fills the proc.* layer metrics from the counters'
// change over a phase of ops operations.
func procMetrics(m map[string]float64, before, after procStats, ops int) {
	if ops > 0 {
		m["proc.alloc_mib_per_op"] = float64(after.totalAlloc-before.totalAlloc) / (1 << 20) / float64(ops)
	}
	m["proc.gc_cycles"] = float64(after.numGC - before.numGC)
	m["proc.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
}
