package sched

import (
	"math/rand"
	"testing"

	"heteropart/internal/device"
	"heteropart/internal/metrics"
	"heteropart/internal/task"
)

// threePassPick is the reference DP-Dep pick: filter the runnable
// instances, look for a chain resident on dev, then fall back to the
// oldest unclaimed chain, then the oldest. It reports which affinity
// counter the pick moves: +1 hit, -1 miss, 0 none.
func threePassPick(d *Dep, dev int, ready []*task.Instance, v View) (*task.Instance, int) {
	if len(ready) == 0 {
		return nil, 0
	}
	kind := kindOf(v, dev)
	var runnable []*task.Instance
	for _, in := range ready {
		if in.Kernel.RunsOn(kind) {
			runnable = append(runnable, in)
		}
	}
	if len(runnable) == 0 {
		return nil, 0
	}
	if d.noAffinity {
		return runnable[0], 0
	}
	for _, in := range runnable {
		if in.Chain >= 0 {
			if home, ok := d.chainHome[in.Chain]; ok && home == dev {
				return in, 1
			}
		}
	}
	for _, in := range runnable {
		if in.Chain < 0 {
			return in, -1
		}
		if _, ok := d.chainHome[in.Chain]; !ok {
			return in, -1
		}
	}
	return runnable[0], -1
}

// TestDepOnIdleMatchesThreePass checks the one-pass pick against the
// reference over random ready queues, chain homes and kernel device
// restrictions, for both DP-Dep variants: same instance, same counter.
func TestDepOnIdleMatchesThreePass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := paperView()
	kernels := []*task.Kernel{
		{Name: "any", Size: 1 << 20},
		{Name: "cpu", Size: 1 << 20, Devices: []device.Kind{device.CPU}},
		{Name: "gpu", Size: 1 << 20, Devices: []device.Kind{device.GPU}},
	}
	for trial := 0; trial < 2000; trial++ {
		mk := NewDep
		if trial%4 == 3 {
			mk = NewDepNoAffinity
		}
		d := mk()
		reg := metrics.NewRegistry()
		d.SetMetrics(reg)
		for c := 0; c < rng.Intn(8); c++ {
			d.chainHome[rng.Intn(8)] = rng.Intn(2)
		}
		ready := make([]*task.Instance, rng.Intn(10))
		for i := range ready {
			ready[i] = inst(kernels[rng.Intn(len(kernels))], i, 0, 1, rng.Intn(10)-2)
		}
		dev := rng.Intn(2)
		want, moved := threePassPick(d, dev, ready, v)
		got := d.OnIdle(dev, ready, v)
		if got != want {
			t.Fatalf("trial %d: dev %d picked %v, reference %v", trial, dev, got, want)
		}
		hits, misses := d.mAffinityHits.Value(), d.mAffinityMiss.Value()
		wantHits, wantMisses := int64(0), int64(0)
		switch moved {
		case 1:
			wantHits = 1
		case -1:
			wantMisses = 1
		}
		if hits != wantHits || misses != wantMisses {
			t.Fatalf("trial %d: hits/misses = %d/%d, reference %d/%d", trial, hits, misses, wantHits, wantMisses)
		}
	}
}
