package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"heteropart/internal/device"
	"heteropart/internal/metrics"
	"heteropart/internal/runner"
	"heteropart/internal/service"
	"heteropart/internal/telemetry"
)

// serveLatencyLimitMs is the latency limit on req_p99_ms: a request
// slower than this, failed or refused, misses it.
const serveLatencyLimitMs = 50

// serveBlock is the number of consecutive requests serve-mix counts as
// one pass.
const serveBlock = 64

// answer is what a response says about a request: the strategy run
// and its simulated makespan.
type answer struct {
	Strategy   string
	MakespanNs int64
	Instances  int
}

// serveServer is one in-process service behind a loopback HTTP server
// and the client that drives it.
type serveServer struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	client *http.Client
	served chan struct{} // closed when Serve has returned
}

// startServer starts a service of the benchmark's width, with the
// given instruments (nil for an untraced run).
func startServer(reg *metrics.Registry, spans *telemetry.Tracer) (*serveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveServer{
		svc:    service.New(service.Config{Workers: width(), Metrics: reg, Spans: spans}),
		url:    "http://" + ln.Addr().String() + "/v1/matchmake",
		served: make(chan struct{}),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     width(),
				MaxIdleConnsPerHost: width(),
				DisableCompression:  true,
			},
		},
	}
	s.srv = &http.Server{Handler: s.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// stop drains the HTTP server, closes the service and waits for the
// server goroutine to exit.
func (s *serveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.served
	s.svc.Close()
	s.client.CloseIdleConnections()
}

// post sends one request and returns the body of its 200 response,
// read into buf (reused across calls to keep the client's allocation
// out of the measurement); any other status is an error.
func (s *serveServer) post(body []byte, buf *bytes.Buffer) ([]byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// decodeAnswer decodes a 200 body: it must be a result envelope whose
// result carries an outcome.
func decodeAnswer(data []byte) (answer, error) {
	var env service.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return answer{}, fmt.Errorf("decode envelope: %w", err)
	}
	if env.Error != nil || env.Result == nil {
		return answer{}, errors.New("200 response without a result")
	}
	var r service.Response
	if err := json.Unmarshal(env.Result, &r); err != nil {
		return answer{}, fmt.Errorf("decode result: %w", err)
	}
	if r.Outcome == nil {
		return answer{}, errors.New("result without an outcome")
	}
	return answer{r.Outcome.Strategy, r.Outcome.MakespanNs, r.Outcome.Instances}, nil
}

// answers records the first answer per key, shared by every server of
// a run; every later answer for the key must equal it. A body
// byte-equal to the key's first one (a memoized response) is not
// decoded again, which keeps the client's share of the CPU small.
type answers struct {
	sched *serveSchedule
	mu    sync.Mutex
	first map[int]firstAnswer
}

type firstAnswer struct {
	sum [sha256.Size]byte
	a   answer
}

func newAnswers(sched *serveSchedule) *answers {
	return &answers{sched: sched, first: make(map[int]firstAnswer)}
}

// observe checks one 200 body for key k and returns its answer.
func (as *answers) observe(k int, data []byte) (answer, error) {
	sum := sha256.Sum256(data)
	as.mu.Lock()
	f, ok := as.first[k]
	as.mu.Unlock()
	if ok && f.sum == sum {
		return f.a, nil
	}
	a, err := decodeAnswer(data)
	if err != nil {
		return a, err
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if f, ok := as.first[k]; !ok {
		as.first[k] = firstAnswer{sum, a}
	} else if f.a != a {
		return a, fmt.Errorf("%+v answered %+v, earlier %+v", as.sched.Keys[k], a, f.a)
	}
	return a, nil
}

// serveState is a running server with its hot keys already requested
// once, so the hot set is cached before timing starts.
type serveState struct {
	srv     *serveServer
	sched   *serveSchedule
	answers *answers
}

func serveSetup(sched *serveSchedule, as *answers, reg *metrics.Registry, spans *telemetry.Tracer) (*serveState, error) {
	srv, err := startServer(reg, spans)
	if err != nil {
		return nil, err
	}
	st := &serveState{srv: srv, sched: sched, answers: as}
	var buf bytes.Buffer
	for k := 0; k < serveHotKeys; k++ {
		data, err := srv.post(st.sched.Bodies[k], &buf)
		if err == nil {
			_, err = as.observe(k, data)
		}
		if err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

// serveSamples are one phase's per-request observations, indexed like
// the schedule.
type serveSamples struct {
	latMs, lateMs []float64
	answers       []answer
	errs          []error
	wall          time.Duration
}

// drive runs the schedule open-loop: each of the client's connections
// takes the next request, waits for its due time, sends it and times
// it from when it was due, so a stall delays the requests behind it
// and shows in their latency.
func (st *serveState) drive() *serveSamples {
	reqs := st.sched.Reqs
	out := &serveSamples{
		latMs: make([]float64, len(reqs)), lateMs: make([]float64, len(reqs)),
		answers: make([]answer, len(reqs)), errs: make([]error, len(reqs)),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < width(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].Due)
				sleepUntil(due)
				out.lateMs[i] = ms(time.Since(due))
				data, err := st.srv.post(st.sched.Bodies[reqs[i].Key], &buf)
				out.latMs[i] = ms(time.Since(due))
				if err == nil {
					out.answers[i], err = st.answers.observe(reqs[i].Key, data)
				}
				out.errs[i] = err
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// verifyAnswers compares every key's answer with a direct library
// call for the same request, outside any timer, and returns the keys
// whose answers differ.
func verifyAnswers(as *answers) map[int]error {
	r := runner.New(runner.Config{Workers: 1, DisableCache: true})
	bad := make(map[int]error)
	for _, k := range sortedKeys(as.first) {
		key := as.sched.Keys[k]
		res, err := r.Run(runner.Spec{
			App: key.App, Strategy: key.Strategy, N: key.N, Chunks: key.Chunks,
			Plat: device.PaperPlatform(0),
		})
		if err == nil {
			want := answer{res.Outcome.Strategy, int64(res.Outcome.Result.Makespan), res.Outcome.Result.Instances}
			if got := as.first[k].a; want != got {
				err = fmt.Errorf("service answered %+v for %+v, library %+v", got, key, want)
			}
		}
		if err != nil {
			bad[k] = err
		}
	}
	return bad
}

// tallyPhase counts every request of a phase as one operation, failed
// when the request failed, its answer disagreed with an earlier one, or
// its key's answer disagreed with the library.
func tallyPhase(sched *serveSchedule, s *serveSamples, bad map[int]error, t *tally) {
	for i, r := range sched.Reqs {
		err := s.errs[i]
		if err == nil {
			err = bad[r.Key]
		}
		if err != nil {
			err = fmt.Errorf("request %d: %w", i, err)
		}
		t.add(err)
	}
}

// servePhase is one timed serve-mix phase on a fresh server.
type servePhase struct {
	ph       *phase
	samples  *serveSamples
	heapGrow float64 // live heap growth over the phase, MiB
	newKeys  int
	proc     [2]procStats
}

// run drives one phase and summarises it; the server stays up so its
// heap can be measured while it is still reachable.
func (st *serveState) run() *servePhase {
	sp := &servePhase{ph: &phase{windows: phaseWindows}}
	heap0 := liveHeapMiB()
	sp.proc[0] = readProc()
	cpu0 := cpuTime()
	s := st.drive()
	sp.ph.cpu = cpuTime() - cpu0
	sp.proc[1] = readProc()
	sp.ph.heapMiB = liveHeapMiB()
	sp.heapGrow = sp.ph.heapMiB - heap0
	runtime.KeepAlive(st.srv)
	sp.samples = s

	ph := sp.ph
	ph.wall = s.wall
	ph.reqMs = s.latMs
	ph.ops = len(s.latMs)
	for i, r := range st.sched.Reqs {
		if r.New {
			sp.newKeys++
			if s.errs[i] == nil {
				ph.runs++
				ph.instances += float64(s.answers[i].Instances)
			}
			// A new key is one decide+execute run behind the request.
			ph.runMs = append(ph.runMs, s.latMs[i])
		}
	}
	// A pass is a block of consecutive requests, from the first one's
	// due time to the last response: it grows when the service falls
	// behind the offered rate.
	for i := 0; i+serveBlock <= len(s.latMs); i += serveBlock {
		start, end := ms(st.sched.Reqs[i].Due), 0.0
		for j := i; j < i+serveBlock; j++ {
			end = max(end, ms(st.sched.Reqs[j].Due)+s.latMs[j])
		}
		ph.passMs = append(ph.passMs, end-start)
	}
	over := 0
	for i, l := range s.latMs {
		if l > serveLatencyLimitMs || s.errs[i] != nil {
			over++
		}
	}
	info("serve: %d requests (%d new keys) in %.2fs, %d over the %dms limit, late p99 %.3gms",
		len(s.latMs), sp.newKeys, s.wall.Seconds(), over, serveLatencyLimitMs, percentile(s.lateMs, 99))
	return sp
}

// serveProbe is the serve-mix set-up as a cold process does it; the
// returned function stops the server.
func serveProbe(o options) (func(), error) {
	sched := newServeSchedule(o.seed, o.seconds)
	st, err := serveSetup(sched, newAnswers(sched), nil, nil)
	if err != nil {
		return nil, err
	}
	return st.srv.stop, nil
}

func serveMeasure(o options) (map[string]float64, tally, error) {
	sched := newServeSchedule(o.seed, o.seconds)
	as := newAnswers(sched)
	st, err := serveSetup(sched, as, nil, nil)
	if err != nil {
		return nil, tally{}, err
	}
	sp := st.run()
	st.srv.stop()
	var t tally
	tallyPhase(sched, sp.samples, verifyAnswers(as), &t)
	return sp.ph.endToEndMetrics(t), t, nil
}

func serveTraced(o options) (map[string]float64, tally, error) {
	sched := newServeSchedule(o.seed, o.seconds)
	as := newAnswers(sched)

	// Reference phase, untraced, over the first half of the schedule:
	// client-side hit and miss latencies, heap per new key, allocation
	// and collector cost, generator lateness.
	refSched := newServeSchedule(o.seed, o.seconds/2)
	st, err := serveSetup(refSched, as, nil, nil)
	if err != nil {
		return nil, tally{}, err
	}
	ref := st.run()
	st.srv.stop()
	m := layerDefaults()
	ref.ph.latencies(m)
	var hit, miss []float64
	for i, r := range refSched.Reqs {
		if r.New {
			miss = append(miss, ref.samples.latMs[i])
		} else {
			hit = append(hit, ref.samples.latMs[i])
		}
	}
	m["service.hit_p50_ms"] = percentile(hit, 50)
	m["service.hit_p99_ms"] = percentile(hit, 99)
	m["service.miss_p50_ms"] = percentile(miss, 50)
	m["service.miss_p99_ms"] = percentile(miss, 99)
	if ref.newKeys > 0 {
		m["service.heap_kib_per_distinct"] = ref.heapGrow * 1024 / float64(ref.newKeys)
	}
	procMetrics(m, ref.proc[0], ref.proc[1], len(refSched.Reqs))
	m["gen.late_p99_ms"] = percentile(ref.samples.lateMs, 99)

	// Traced phase: the same schedule against a fresh service with a
	// metrics registry and span tracer attached. The warm-up's counts
	// and spans come off.
	reg, spans := metrics.NewRegistry(), telemetry.New()
	tst, err := serveSetup(sched, as, reg, spans)
	if err != nil {
		return nil, tally{}, err
	}
	warm, from := readCounters(reg), spans.Len()
	tr := tst.run()
	tst.srv.stop()
	c := readCounters(reg).minus(warm)
	all := spans.Spans()
	runnerMetrics(m, c, spanWall(all, telemetry.KindPlan, from), spanWall(all, telemetry.KindExecute, from),
		spanWall(all, telemetry.KindRun, from), tr.samples.wall, width())
	m["glinda.profiles"] = spanCount(all, telemetry.KindProfile, from)
	m["sched.decisions"] = spanCount(all, telemetry.KindDecide, from)
	m["runner.runs"] = c.runs
	if n := c.coalesceHits + c.coalesceMisses; n > 0 {
		m["service.coalesce_hit_ratio"] = c.coalesceHits / n
	}
	m["service.rejected"] = c.rejected
	m["service.flights"] = reg.Gauge("service_flights").Value()
	m["trace.overhead_ratio"] = mean(tr.samples.latMs) / mean(ref.samples.latMs)

	var t tally
	bad := verifyAnswers(as)
	tallyPhase(refSched, ref.samples, bad, &t)
	tallyPhase(sched, tr.samples, bad, &t)
	return m, t, nil
}
