package strategy

import (
	"math"
	"runtime"
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
)

// TestDynamicAllocationScaling guards the dynamic core against
// super-linear cost in chunk count: for DP-Perf and DP-Dep over four
// apps in timing mode, the bytes one decide+execute run allocates
// must grow with an exponent of at most 1.25 from 1024 to 4096 chunks
// (a quadratic dependence scan or copy-on-remove queue measures
// 1.5-2.1 here).
func TestDynamicAllocationScaling(t *testing.T) {
	const maxExp = 1.25
	plat := device.PaperPlatform(0)
	for _, app := range []string{"BlackScholes", "MatrixMul", "HotSpot", "Nbody"} {
		for _, strat := range []string{"DP-Perf", "DP-Dep"} {
			a, err := apps.ByName(app)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ByName(strat)
			if err != nil {
				t.Fatal(err)
			}
			run := func(chunks int) uint64 {
				p, err := a.Build(apps.Variant{Spaces: 1 + len(plat.Accels)})
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Chunks: chunks}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				pl, err := s.Plan(p, plat, opts)
				if err == nil {
					_, err = Execute(pl, p, plat, opts)
				}
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s %s at %d chunks: %v", app, strat, chunks, err)
				}
				return after.TotalAlloc - before.TotalAlloc
			}
			small, large := run(1024), run(4096)
			exp := math.Log(float64(large)/float64(small)) / math.Log(4)
			t.Logf("%s %s: %d B at 1024 chunks, %d B at 4096, exponent %.2f", app, strat, small, large, exp)
			if exp > maxExp {
				t.Errorf("%s %s: allocation exponent %.2f over 1024-4096 chunks exceeds %.2f", app, strat, exp, maxExp)
			}
		}
	}
}
