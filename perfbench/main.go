// Command perfbench is the repository benchmark. It drives the
// matchmaker's decide/execute stack through three seeded workloads and
// prints, as its last line of output, one JSON object with the
// end-to-end metrics (default) or the per-layer metrics (-trace 1):
//
//	dyn-chunks   one closed-loop caller deciding and executing DP-Perf and
//	             DP-Dep runs over a chunk-count ladder (task, mem, rt,
//	             sim and sched dominate)
//	paper-sweep  repeated cold regenerations of the full paper report
//	             through a 2-worker runner (glinda probes, runner pool)
//	serve-mix    an open loop over loopback HTTP against an in-process
//	             matchmaking service (admission, coalescing, encoding)
//
// Every output is checked: dyn-chunks against the committed
// simulated-statistics golden, paper-sweep byte for byte against
// EXPERIMENTS.md, serve-mix against direct library calls. Host times
// are wall-clock; simulated time only takes part in the checks.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh -workload dyn-chunks -seed 1 -seconds 25 -trace 0
//
// manifest.json, next to this file, records what each workload reports
// and which end-to-end metric each per-layer metric should move.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host records the machine and the concurrency a run used.
type host struct {
	NumCPU         int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go"`
	RunnerWorkers  int    `json:"runner_workers"`
	ServiceWorkers int    `json:"service_workers"`
	ClientConns    int    `json:"client_conns"`
}

// check fails when any configured concurrency exceeds the CPU count:
// the benchmark's load must never oversubscribe the host it measures.
func (h host) check() error {
	for _, c := range []struct {
		name string
		n    int
	}{
		{"GOMAXPROCS", h.GOMAXPROCS},
		{"runner workers", h.RunnerWorkers},
		{"service workers", h.ServiceWorkers},
		{"client connections", h.ClientConns},
	} {
		if c.n > h.NumCPU {
			return fmt.Errorf("%s = %d exceeds nproc = %d", c.name, c.n, h.NumCPU)
		}
	}
	return nil
}

// width is the worker and connection count of every workload: two, or
// fewer on a smaller host.
func width() int { return min(2, runtime.NumCPU()) }

// options are one invocation's parameters.
type options struct {
	seed    int64
	seconds time.Duration
}

// tally counts operations; every failure or incorrect output counts
// once against the operations attempted.
type tally struct {
	attempted, failed int
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
}

// workload is one benchmark workload: measure gives the end-to-end
// metrics but setup_s, traced the per-layer ones, and probe does the
// set-up measure starts with and returns what releases it.
type workload struct {
	measure func(options) (map[string]float64, tally, error)
	traced  func(options) (map[string]float64, tally, error)
	probe   func(options) (func(), error)
}

var workloads = map[string]workload{
	"dyn-chunks":  {measure: dynMeasure, traced: dynTraced, probe: dynProbe},
	"paper-sweep": {measure: paperMeasure, traced: paperTraced, probe: paperProbe},
	"serve-mix":   {measure: serveMeasure, traced: serveTraced, probe: serveProbe},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: dyn-chunks, paper-sweep or serve-mix")
		seed    = flag.Int64("seed", 1, "seed of the workload's generated inputs")
		seconds = flag.Int("seconds", 25, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		golden  = flag.String("write-golden", "", "regenerate the dyn-chunks golden into this file and exit")
		probe   = flag.Bool("setup-probe", false, "set the workload up, print "+probeReady+" and exit (setup_s times this)")
	)
	flag.Parse()
	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		RunnerWorkers: width(), ServiceWorkers: width(), ClientConns: width(),
	}
	if err := h.check(); err != nil {
		fatal(err)
	}
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *probe {
		release, err := w.probe(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(probeReady)
		release()
		return
	}
	hostLine, _ := json.Marshal(map[string]any{"host": h, "workload": *name, "seed": *seed})
	fmt.Println(string(hostLine))
	run, units := w.measure, endToEnd
	if *trace == 1 {
		run, units = w.traced, perLayer
	}
	var setupS float64
	if *trace == 0 {
		var err error
		if setupS, err = coldSetups(*name, opts); err != nil {
			fatal(err)
		}
	}
	values, t, err := run(opts)
	if err != nil {
		fatal(err)
	}
	if *trace == 0 {
		values["setup_s"] = setupS
	}
	res := result{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]metric, len(units)),
	}
	for _, u := range units {
		v, ok := values[u.name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not report %s", *name, u.name))
		}
		res.Metrics[u.name] = metric{Value: v, Unit: u.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// setupRepeats is how many cold set-ups a run times; setup_s is their
// median.
const setupRepeats = 9

// probeReady is the line a -setup-probe process prints when its set-up
// is done.
const probeReady = "ready"

// coldSetups times setupRepeats set-ups of a workload, each in a fresh
// process of this program started with -setup-probe, from just before
// the process starts to the moment it reports its set-up done, and
// returns their median in seconds. Each process is waited for before
// the next starts.
func coldSetups(name string, o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(int(o.seconds/time.Second)), "-setup-probe")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if err := errors.Join(readErr, cmd.Wait()); err != nil || line != probeReady+"\n" {
			return 0, fmt.Errorf("set-up probe %d: %q, %v", i, line, err)
		}
		times = append(times, d.Seconds())
	}
	info("setup: %d cold processes, %v s", len(times), times)
	return percentile(times, 50), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// info prints one informational line (sample counts, tail ranks)
// ahead of the result.
func info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
