package exp

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
)

// TestPlanCacheSectionSizeFree: the section prints counts that do not
// depend on the sweep's sizes, so the small sizes render exactly what
// the former 2^16..2^18 sweep rendered.
func TestPlanCacheSectionSizeFree(t *testing.T) {
	env := NewEnv(device.PaperPlatform(12), 2, nil)
	render := func(sizes []int64) string {
		t.Helper()
		rs, reg, err := planCacheSweep(env, sizes)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := planCacheReport(rs, reg)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	small := render(planCacheSizes)
	if !strings.Contains(small, "| 9 | 9 | 3 | 6 |") {
		t.Fatalf("counter row changed:\n%s", small)
	}
	if testing.Short() {
		return
	}
	if large := render([]int64{1 << 16, 1 << 17, 1 << 18}); large != small {
		t.Fatalf("section depends on the sweep sizes:\n--- 2^12..2^14 ---\n%s--- 2^16..2^18 ---\n%s", small, large)
	}
}

// TestPlanCacheSectionVerifies: every compute-mode result is verified
// and passes, and the largest size crosses the reference's input
// period.
func TestPlanCacheSectionVerifies(t *testing.T) {
	env := NewEnv(device.PaperPlatform(12), 2, nil)
	rs, reg, err := planCacheSweep(env, planCacheSizes)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, res := range rs {
		if !res.Spec.Compute {
			continue
		}
		verify := res.Verify
		if verify == nil {
			t.Fatalf("%s n=%d: compute-mode result has no Verify", res.Spec, res.Spec.N)
		}
		res.Verify = func() error {
			calls++
			err := verify()
			if err != nil {
				t.Errorf("n=%d: %v", res.Spec.N, err)
			}
			return err
		}
	}
	if _, err := planCacheReport(rs, reg); err != nil {
		t.Fatal(err)
	}
	if calls != len(planCacheSizes) {
		t.Fatalf("Verify called %d times, want once per size (%d)", calls, len(planCacheSizes))
	}
	if last := planCacheSizes[len(planCacheSizes)-1]; last <= 15840 {
		t.Fatalf("largest size %d does not pass one BlackScholes input period", last)
	}
}

// TestPlanCacheSectionFailsOnWrongOutput: a compute-mode result whose
// output is wrong — one option left unpriced past the input period —
// or that cannot be verified fails the section.
func TestPlanCacheSectionFailsOnWrongOutput(t *testing.T) {
	env := NewEnv(device.PaperPlatform(12), 2, nil)
	rs, reg, err := planCacheSweep(env, planCacheSizes)
	if err != nil {
		t.Fatal(err)
	}
	last := rs[len(rs)-1]
	if !last.Spec.Compute {
		t.Fatal("the sweep's last point is not compute mode")
	}
	n := last.Spec.N
	skip := n - 1
	p, err := apps.NewBlackScholes().Build(apps.Variant{N: n, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	k := p.Phases[0].Kernel
	k.Compute(0, skip)
	k.Compute(skip+1, n)
	good := last.Verify
	last.Verify = p.Verify
	_, err = planCacheReport(rs, reg)
	if err == nil {
		t.Fatal("a wrong output passed the section")
	}
	if want := fmt.Sprintf("[%d]", skip); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the wrong output %s", err, want)
	}

	last.Verify = nil
	if _, err := planCacheReport(rs, reg); err == nil {
		t.Fatal("a compute-mode result without Verify passed the section")
	}
	last.Verify = good
	if _, err := planCacheReport(rs, reg); err != nil {
		t.Fatalf("restored result: %v", err)
	}
}

// BenchmarkMarkdownReport times one cold regeneration of the report
// through a fresh 2-worker runner per iteration, checking each against
// the committed EXPERIMENTS.md. `make profile-report` profiles it.
func BenchmarkMarkdownReport(b *testing.B) {
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		b.Fatal(err)
	}
	plat := device.PaperPlatform(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := MarkdownReportEnv(NewEnv(plat, 2, nil))
		if err != nil {
			b.Fatal(err)
		}
		if doc != string(want) {
			b.Fatalf("regenerated report differs from EXPERIMENTS.md at byte %d", firstDiff(doc, string(want)))
		}
	}
}
