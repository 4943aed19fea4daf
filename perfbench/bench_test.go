package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {1e6, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{20: 1, 50: 3, 90: 5, 100: 5} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%g) = %g, want %g", q, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile is not 0")
	}
}

func TestWindowedIgnoresOneStalledWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			v := 1.0
			if w == 2 {
				v = 50 // one stalled stretch
			}
			xs = append(xs, v)
		}
	}
	if got := windowed(xs, 99, 5); got != 1 {
		t.Errorf("windowed p99 = %g, want 1", got)
	}
	if got := percentile(xs, 99); got != 50 {
		t.Errorf("plain p99 = %g, want 50", got)
	}
}

func TestFitExponent(t *testing.T) {
	xs := []float64{256, 512, 1024, 2048}
	for _, b := range []float64{1, 1.5, 2} {
		var ys []float64
		for _, x := range xs {
			ys = append(ys, 3*math.Pow(x, b))
		}
		if got := fitExponent(xs, ys); math.Abs(got-b) > 1e-9 {
			t.Errorf("exponent of 3x^%g fitted as %g", b, got)
		}
	}
	if got := fitExponent([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("one point fitted exponent %g, want 0", got)
	}
	if got := fitExponent([]float64{4, 4}, []float64{1, 2}); got != 0 {
		t.Errorf("one distinct size fitted exponent %g, want 0", got)
	}
}

func TestGoldenRejectsAnyPerturbedStatistic(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	pt := dynPoint{"HotSpot", "DP-Dep", 512}
	want := g[pt.String()]
	if err := g.check(pt, want, true); err != nil {
		t.Fatalf("golden rejects itself: %v", err)
	}
	fields := reflect.ValueOf(&want).Elem()
	for i := 0; i < fields.NumField(); i++ {
		got := want
		f := reflect.ValueOf(&got).Elem().Field(i)
		f.SetInt(f.Int() + 1)
		name := fields.Type().Field(i).Name
		if err := g.check(pt, got, true); err == nil {
			t.Errorf("golden accepts %s off by one", name)
		}
		if name == "Edges" {
			if err := g.check(pt, got, false); err != nil {
				t.Errorf("golden compares edges when told not to: %v", err)
			}
		}
	}
}

func TestTracedRunMatchesGolden(t *testing.T) {
	st, err := newDynState(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.golden, err = loadGolden(); err != nil {
		t.Fatal(err)
	}
	for _, pt := range []dynPoint{{"BlackScholes", "DP-Perf", 256}, {"HotSpot", "DP-Dep", 256}} {
		L, got, err := st.tracedRun(pt)
		if err != nil {
			t.Fatalf("%s: %v", pt, err)
		}
		if err := st.golden.check(pt, got, true); err != nil {
			t.Error(err)
		}
		if L.mem.ops == 0 || L.mem.transfers == 0 {
			t.Errorf("%s: memory replay saw %d ops, %d transfers", pt, L.mem.ops, L.mem.transfers)
		}
		// DP-Perf's training pass is a whole execution of its own: taking
		// it off leaves less than the runtime's share of both.
		if trained := L.measured < L.execute; trained != (pt.Strategy == "DP-Perf") {
			t.Errorf("%s: measured %v, runtime share %v: training pass not told apart", pt, L.measured, L.execute)
		}
		res, err := st.run(pt)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.golden.check(pt, statsOf(res), false); err != nil {
			t.Errorf("untraced: %v", err)
		}
	}
}

// fingerprint hashes a value's JSON encoding.
func fingerprint(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))[:16]
}

// The pinned fingerprints change only when a generator changes; a
// change to either is a change of the benchmark's inputs.
const (
	dynSeed1Fingerprint   = "8893ec9be7758ed0"
	serveSeed1Fingerprint = "9b9d8d76a6ba5dcb8079d73ce1ca6790"
)

func TestDynGeneratorIsSeeded(t *testing.T) {
	passes := func(seed int64) [][]dynPoint {
		g := newDynGen(seed)
		return [][]dynPoint{g.next(), g.next(), g.next()}
	}
	a, b := passes(1), passes(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different passes")
	}
	if reflect.DeepEqual(a, passes(2)) {
		t.Fatal("different seeds, same passes")
	}
	for _, p := range a {
		seen := make(map[dynPoint]bool)
		for _, pt := range p {
			seen[pt] = true
		}
		if len(p) != len(dynPoints()) || len(seen) != len(p) {
			t.Fatalf("a pass does not run every point once: %v", p)
		}
	}
	if got := fingerprint(t, a); got != dynSeed1Fingerprint {
		t.Errorf("seed 1 passes fingerprint %s, pinned %s", got, dynSeed1Fingerprint)
	}
}

func TestServeGeneratorIsSeeded(t *testing.T) {
	a, b := newServeSchedule(1, 15*time.Second), newServeSchedule(1, 15*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a.Reqs, newServeSchedule(2, 15*time.Second).Reqs) {
		t.Fatal("different seeds, same requests")
	}
	if got, want := len(a.Reqs), 15*serveRate; got != want {
		t.Fatalf("%d requests, want %d", got, want)
	}
	seen := make(map[int]bool)
	news := 0
	for i, r := range a.Reqs {
		if r.New {
			news++
			if seen[r.Key] || r.Key < serveHotKeys {
				t.Fatalf("request %d: new key %d was seen before", i, r.Key)
			}
		} else if r.Key >= serveHotKeys {
			t.Fatalf("request %d: repeated key %d is not hot", i, r.Key)
		}
		seen[r.Key] = true
	}
	if news != len(a.Reqs)/serveNewEvery {
		t.Errorf("%d new keys, want %d", news, len(a.Reqs)/serveNewEvery)
	}
	if got := fingerprint(t, a.Reqs[:200]) + fingerprint(t, a.Keys[:64]); got != serveSeed1Fingerprint {
		t.Errorf("seed 1 schedule fingerprint %s, pinned %s", got, serveSeed1Fingerprint)
	}
	// The traced run's reference phase replays the first half of the
	// schedule: a shorter schedule must be a prefix of a longer one.
	half := newServeSchedule(1, 7500*time.Millisecond)
	if n := len(half.Reqs); !reflect.DeepEqual(half.Reqs, a.Reqs[:n]) || !reflect.DeepEqual(half.Keys, a.Keys[:len(half.Keys)]) {
		t.Error("a shorter schedule is not a prefix of a longer one")
	}
}

func TestHostCheck(t *testing.T) {
	h := host{NumCPU: 2, GOMAXPROCS: 2, RunnerWorkers: 2, ServiceWorkers: 2, ClientConns: 2}
	if err := h.check(); err != nil {
		t.Fatalf("counts at nproc refused: %v", err)
	}
	h.ClientConns = 3
	if err := h.check(); err == nil {
		t.Fatal("more client connections than CPUs accepted")
	}
}

// TestBenchmarkFilesMatchCode keeps BENCHMARK.json and manifest.json in
// step with the metrics and workloads the program reports.
func TestBenchmarkFilesMatchCode(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []unit) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i, u := range want {
			if got[i].Name != u.name || got[i].Unit != u.unit || got[i].Better != u.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], u)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if want := sortedKeys(workloads); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}

	var man struct {
		Workloads map[string]struct{ Metrics map[string]string }
		Claims    []struct {
			Layer []string
			Moves []string
			On    string
		}
	}
	readJSON(t, "manifest.json", &man)
	known := make(map[string]bool)
	for _, u := range append(append([]unit(nil), endToEnd...), perLayer...) {
		known[u.name] = true
	}
	for _, w := range sortedKeys(workloads) {
		desc, ok := man.Workloads[w]
		if !ok {
			t.Errorf("manifest.json does not describe %s", w)
			continue
		}
		for _, u := range endToEnd {
			if desc.Metrics[u.name] == "" {
				t.Errorf("manifest.json does not say what %s means on %s", u.name, w)
			}
		}
	}
	for _, c := range man.Claims {
		if _, ok := workloads[c.On]; !ok && c.On != "all" {
			t.Errorf("claim on unknown workload %q", c.On)
		}
		for _, m := range append(append([]string(nil), c.Layer...), c.Moves...) {
			if !known[m] {
				t.Errorf("claim names unknown metric %q", m)
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
