package exp

import (
	"os"
	"testing"

	"heteropart/internal/device"
	"heteropart/internal/metrics"
)

// TestExperimentsParallelByteIdentical renders every experiment
// through pools of 2, 4 and 8 workers and compares the output bytes
// against the sequential render — the tentpole guarantee: sharding
// never changes a rendered artifact.
func TestExperimentsParallelByteIdentical(t *testing.T) {
	plat := device.PaperPlatform(12)
	exps := All()
	renderAll := func(workers int) []string {
		t.Helper()
		env := NewEnv(plat, workers, nil)
		tables, err := RunExperiments(env, exps)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make([]string, len(tables))
		for i, tab := range tables {
			out[i] = tab.Render()
		}
		return out
	}
	ref := renderAll(1)
	for _, workers := range []int{2, 4, 8} {
		got := renderAll(workers)
		for i := range exps {
			if got[i] != ref[i] {
				t.Errorf("workers=%d: %s renders differently from sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
					workers, exps[i].ID, ref[i], got[i])
			}
		}
	}
}

// TestReportParallelIdentical: the full EXPERIMENTS.md document must
// be byte-identical between the sequential and the pooled path, and
// both must equal the committed report (regenerate it with
// `make report` after an intended change).
func TestReportParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	plat := device.PaperPlatform(12)
	seq, err := MarkdownReport(plat)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MarkdownReportEnv(NewEnv(plat, 8, nil))
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatal("parallel report differs from sequential")
	}
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if seq != string(committed) {
		t.Fatalf("regenerated report differs from the committed EXPERIMENTS.md at byte %d",
			firstDiff(seq, string(committed)))
	}
}

// firstDiff returns the index of the first byte where a and b differ.
func firstDiff(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestSharedEnvCacheDedupes: experiments repeat many (app, strategy)
// points; a shared environment must coalesce them.
func TestSharedEnvCacheDedupes(t *testing.T) {
	reg := metrics.NewRegistry()
	env := NewEnv(device.PaperPlatform(12), 4, reg)
	// fig5a and fig6 both measure MatrixMul SP-Single/DP-Perf/DP-Dep.
	for _, id := range []string{"fig5a", "fig6"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunEnv(env); err != nil {
			t.Fatal(err)
		}
	}
	hits, ok := reg.Snapshot(0).Get("runner_cache_hits_total")
	if !ok || hits.Value == 0 {
		t.Fatalf("no cache hits across overlapping experiments (hits=%v ok=%v)", hits.Value, ok)
	}
}
