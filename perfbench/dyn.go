package main

import (
	"fmt"
	"runtime"
	"time"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/metrics"
	"heteropart/internal/rt"
	"heteropart/internal/strategy"
	"heteropart/internal/task"
	"heteropart/internal/telemetry"
	"heteropart/internal/trace"
)

// dynState is the dyn-chunks set-up: the paper platform, the resolved
// apps and strategies, the golden and the seeded pass generator.
type dynState struct {
	plat   *device.Platform
	apps   map[string]apps.App
	strats map[string]strategy.Strategy
	golden golden
	gen    *dynGen
}

func newDynState(seed int64) (*dynState, error) {
	st := &dynState{
		plat:   device.PaperPlatform(0),
		apps:   make(map[string]apps.App),
		strats: make(map[string]strategy.Strategy),
		gen:    newDynGen(seed),
	}
	for _, name := range dynApps {
		a, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		st.apps[name] = a
	}
	for _, name := range dynStrategies {
		s, err := strategy.ByName(name)
		if err != nil {
			return nil, err
		}
		st.strats[name] = s
	}
	return st, nil
}

// dynSetup prepares the workload and warms it up: every (app,
// strategy) pair runs once, checked, at the ladder's bottom rung.
func dynSetup(seed int64) (*dynState, error) {
	st, err := newDynState(seed)
	if err != nil {
		return nil, err
	}
	if st.golden, err = loadGolden(); err != nil {
		return nil, err
	}
	for _, a := range dynApps {
		for _, s := range dynStrategies {
			pt := dynPoint{a, s, dynLadder[0]}
			res, err := st.run(pt)
			if err != nil {
				return nil, err
			}
			if err := st.golden.check(pt, statsOf(res), false); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// problem builds a fresh problem for a point, as the runner does for
// every run.
func (st *dynState) problem(pt dynPoint) (*apps.Problem, error) {
	return st.apps[pt.App].Build(apps.Variant{Spaces: 1 + len(st.plat.Accels)})
}

// run is one untraced decide+execute run in timing mode.
func (st *dynState) run(pt dynPoint) (*rt.Result, error) {
	p, err := st.problem(pt)
	if err != nil {
		return nil, err
	}
	s := st.strats[pt.Strategy]
	opts := strategy.Options{Chunks: pt.Chunks}
	pl, err := s.Plan(p, st.plat, opts)
	if err != nil {
		return nil, err
	}
	out, err := strategy.Execute(pl, p, st.plat, opts)
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// edges counts the dependence edges of a point's task graph.
func (st *dynState) edges(pt dynPoint) (int, error) {
	p, err := st.problem(pt)
	if err != nil {
		return 0, err
	}
	pl, err := st.strats[pt.Strategy].Plan(p, st.plat, strategy.Options{Chunks: pt.Chunks})
	if err != nil {
		return 0, err
	}
	tp, err := pl.Materialize(p)
	if err != nil {
		return 0, err
	}
	task.BuildDeps(tp)
	return countEdges(tp), nil
}

func countEdges(tp *task.Plan) int {
	n := 0
	for _, in := range tp.Instances() {
		n += len(in.Deps)
	}
	return n
}

// checkEdges compares every point's dependence edge count with the
// golden, one operation per point.
func (st *dynState) checkEdges(t *tally) {
	for _, pt := range dynPoints() {
		e, err := st.edges(pt)
		if want := st.golden[pt.String()].Edges; err == nil && e != want {
			err = fmt.Errorf("%s: %d dependence edges, golden has %d", pt, e, want)
		}
		t.add(err)
	}
}

// untracedPhase runs whole passes until the phase length has elapsed,
// timing every run and pass.
func (st *dynState) untracedPhase(length time.Duration, t *tally) *phase {
	ph := &phase{samePasses: true}
	start, cpu0 := time.Now(), cpuTime()
	for time.Since(start) < length {
		p0 := time.Now()
		for _, pt := range st.gen.next() {
			r0 := time.Now()
			res, err := st.run(pt)
			d := time.Since(r0)
			if err == nil {
				err = st.golden.check(pt, statsOf(res), false)
				ph.instances += float64(res.Instances)
			}
			t.add(err)
			ph.runs++
			ph.runMs = append(ph.runMs, ms(d))
		}
		ph.passMs = append(ph.passMs, ms(time.Since(p0)))
	}
	ph.wall, ph.cpu = time.Since(start), cpuTime()-cpu0
	ph.ops = int(ph.runs)
	// A closed loop issues each run when the previous one returns, so
	// a request is due when it is issued. Every pass does the same work:
	// each is one window.
	ph.reqMs = ph.runMs
	ph.windows = len(ph.passMs)
	return ph
}

// dynProbe is the dyn-chunks set-up as a cold process does it.
func dynProbe(o options) (func(), error) {
	_, err := dynSetup(o.seed)
	return func() {}, err
}

func dynMeasure(o options) (map[string]float64, tally, error) {
	st, err := dynSetup(o.seed)
	if err != nil {
		return nil, tally{}, err
	}
	var t tally
	ph := st.untracedPhase(o.seconds, &t)
	ph.heapMiB = liveHeapMiB()
	runtime.KeepAlive(st)
	st.checkEdges(&t)
	return ph.endToEndMetrics(t), t, nil
}

// dynLayers is one traced run's time per layer and its exact counts.
type dynLayers struct {
	decide, materialize, builddeps, execute, self time.Duration
	// measured is the measured execution alone, without DP-Perf's
	// training pass.
	measured                              time.Duration
	profiles, edges, decisions, instances int
	mem                                   memReplay
}

// add accumulates another run's layers.
func (a *dynLayers) add(b dynLayers) {
	a.decide += b.decide
	a.materialize += b.materialize
	a.builddeps += b.builddeps
	a.execute += b.execute
	a.self += b.self
	a.measured += b.measured
	a.profiles += b.profiles
	a.edges += b.edges
	a.decisions += b.decisions
	a.instances += b.instances
	a.mem.ops += b.mem.ops
	a.mem.transfers += b.mem.transfers
	a.mem.bytes += b.mem.bytes
	a.mem.dur += b.mem.dur
}

// tracedRun is one decide+execute run through strategy.Plan and
// strategy.Execute, each timed from the outside. The execution carries
// a span tracer, so DP-Perf's training pass (its KindTrain span) can
// be told apart from the measured run, and collects the run's trace.
// Afterwards the plan is materialized again and its task graph built,
// each under its own timer, and the run's directory traffic is
// replayed.
func (st *dynState) tracedRun(pt dynPoint) (dynLayers, dynStats, error) {
	var L dynLayers
	p, err := st.problem(pt)
	if err != nil {
		return L, dynStats{}, err
	}
	reg := metrics.NewRegistry()
	t0 := time.Now()
	pl, err := st.strats[pt.Strategy].Plan(p, st.plat, strategy.Options{Chunks: pt.Chunks, Metrics: reg})
	L.decide = time.Since(t0)
	if err != nil {
		return L, dynStats{}, err
	}
	L.profiles = int(reg.Counter("glinda_profiles_total").Value())
	spans := telemetry.New()
	t1 := time.Now()
	out, err := strategy.Execute(pl, p, st.plat, strategy.Options{Chunks: pt.Chunks, CollectTrace: true, Spans: spans})
	L.execute = time.Since(t1)
	if err != nil {
		return L, dynStats{}, err
	}
	all := spans.Spans()
	L.measured = L.execute - spanWall(all, telemetry.KindTrain, 0)

	t2 := time.Now()
	deps, err := pl.Materialize(p)
	L.materialize = time.Since(t2)
	if err != nil {
		return L, dynStats{}, err
	}
	t3 := time.Now()
	task.BuildDeps(deps)
	L.builddeps = time.Since(t3)
	L.edges = countEdges(deps)

	if L.mem, err = replayMem(deps, out.Trace, 1+len(st.plat.Accels)); err != nil {
		return L, dynStats{}, fmt.Errorf("%s: %w", pt, err)
	}
	// Every execution, the training pass included, materializes the
	// plan, then builds its graph and drives the directory in the
	// runtime. The runtime's share is the execution less its
	// materializations; less the graph building and the directory
	// traffic, what remains is the event engine and the scheduler.
	calls := time.Duration(1 + spanCount(all, telemetry.KindTrain, 0))
	L.execute -= calls * L.materialize
	L.self = L.execute - calls*(L.builddeps+L.mem.dur)
	L.decisions = out.Result.Decisions
	L.instances = out.Result.Instances
	stats := statsOf(out.Result)
	stats.Edges = L.edges
	return L, stats, nil
}

// memReplay is the outcome of replaying a run's directory traffic.
type memReplay struct {
	ops, transfers int
	bytes          int64
	dur            time.Duration
}

// replayMem replays a run's access stream through a fresh directory:
// task completions in trace order, each reading its inputs into the
// executing device's space (TransfersForRead, then Commit of every
// transfer) and marking its outputs written there (MarkWritten); every
// taskwait flushes the host whole (FlushAllTransfers, Commit) and
// drops device copies. tp must be a materialization of the traced plan
// (same instance labels).
func replayMem(tp *task.Plan, tr *trace.Trace, spaces int) (memReplay, error) {
	byLabel := make(map[string]*task.Instance)
	window := make(map[int]int) // instance ID -> taskwait window
	bufs := make(map[int]*mem.Buffer)
	windows, maxBuf := 0, -1
	for _, op := range tp.Ops {
		if op.Kind == task.OpBarrier {
			windows++
			continue
		}
		in := op.Inst
		byLabel[in.String()] = in
		window[in.ID] = windows
		for _, a := range in.Accesses {
			bufs[a.Buf.ID] = a.Buf
			maxBuf = max(maxBuf, a.Buf.ID)
		}
	}

	var r memReplay
	t0 := time.Now()
	dir := mem.NewDirectory(spaces)
	// Registration order reproduces the buffer IDs the accesses carry.
	for id := 0; id <= maxBuf; id++ {
		if b := bufs[id]; b != nil {
			dir.Register(b.Name, b.Elems, b.ElemSize)
		} else {
			dir.Register("unused", 0, 1)
		}
	}
	move := func(txs []mem.Transfer) error {
		for _, tx := range txs {
			r.ops++
			if err := dir.Commit(tx); err != nil {
				return err
			}
			r.transfers++
			r.bytes += tx.Bytes()
		}
		return nil
	}
	flush := func() error {
		r.ops += 2
		txs, err := dir.FlushAllTransfers()
		if err != nil {
			return err
		}
		if err := move(txs); err != nil {
			return err
		}
		return dir.DropDeviceCopies()
	}
	cur := 0
	for _, rec := range tr.Records {
		if rec.Kind != trace.TaskRun {
			continue
		}
		in := byLabel[rec.Label]
		if in == nil {
			return r, fmt.Errorf("mem replay: trace names unknown instance %q", rec.Label)
		}
		for ; cur < window[in.ID]; cur++ {
			if err := flush(); err != nil {
				return r, err
			}
		}
		space := mem.Space(rec.Device)
		for _, a := range in.Accesses {
			if a.Mode.Reads() {
				r.ops++
				txs, err := dir.TransfersForRead(a.Buf, space, a.Interval)
				if err != nil {
					return r, err
				}
				if err := move(txs); err != nil {
					return r, err
				}
			}
			if a.Mode.Writes() {
				r.ops++
				if err := dir.MarkWritten(a.Buf, space, a.Interval); err != nil {
					return r, err
				}
			}
		}
	}
	for ; cur < windows; cur++ {
		if err := flush(); err != nil {
			return r, err
		}
	}
	r.dur = time.Since(t0)
	return r, nil
}

func dynTraced(o options) (map[string]float64, tally, error) {
	st, err := dynSetup(o.seed)
	if err != nil {
		return nil, tally{}, err
	}
	var t tally
	p0 := readProc()
	ref := st.untracedPhase(o.seconds/2, &t)
	p1 := readProc()

	var (
		sum          dynLayers
		rung         = make(map[int]*dynLayers) // per chunk count, for the exponents
		runs, passes int
	)
	for _, m := range dynLadder {
		rung[m] = &dynLayers{}
	}
	start := time.Now()
	for time.Since(start) < o.seconds {
		for _, pt := range st.gen.next() {
			L, got, err := st.tracedRun(pt)
			if err == nil {
				err = st.golden.check(pt, got, true)
			}
			t.add(err)
			runs++
			sum.add(L)
			rung[pt.Chunks].add(L)
		}
		passes++
	}
	wall := time.Since(start)

	perRun := func(d time.Duration) float64 { return ms(d) / float64(runs) }
	perPass := func(n int) float64 { return float64(n) / float64(passes) }
	var inst, deps, measured []float64
	for _, m := range dynLadder {
		inst = append(inst, float64(rung[m].instances))
		deps = append(deps, float64(rung[m].builddeps))
		measured = append(measured, float64(rung[m].measured))
	}
	m := layerDefaults()
	ref.latencies(m)
	m["glinda.decide_ms"] = perRun(sum.decide)
	m["glinda.profiles"] = perPass(sum.profiles)
	m["plan.materialize_ms"] = perRun(sum.materialize)
	m["task.builddeps_ms"] = perRun(sum.builddeps)
	m["task.edges"] = perPass(sum.edges)
	m["task.builddeps_exp"] = fitExponent(inst, deps)
	m["mem.replay_ms"] = perRun(sum.mem.dur)
	m["mem.ops"] = perPass(sum.mem.ops)
	m["mem.transfers"] = perPass(sum.mem.transfers)
	m["mem.transfer_mib"] = float64(sum.mem.bytes) / (1 << 20) / float64(passes)
	m["rt.execute_ms"] = perRun(sum.execute)
	m["rt.self_ms"] = perRun(sum.self)
	m["rt.execute_exp"] = fitExponent(inst, measured)
	m["sched.decisions"] = perPass(sum.decisions)
	procMetrics(m, p0, p1, int(ref.runs))
	m["trace.overhead_ratio"] = (wall.Seconds() / float64(passes)) / (ref.wall.Seconds() / float64(len(ref.passMs)))
	info("traced: %d passes, %d runs in %.2fs; reference: %d passes in %.2fs",
		passes, runs, wall.Seconds(), len(ref.passMs), ref.wall.Seconds())
	return m, t, nil
}
