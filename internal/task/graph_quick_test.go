package task

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"heteropart/internal/mem"
)

// oracleDeps recomputes the dependence relation by brute force:
// instance j depends on instance i (i < j, same barrier window) iff
// some access pair on the same buffer overlaps and at least one
// writes.
func oracleDeps(p *Plan) map[[2]int]bool {
	edges := make(map[[2]int]bool)
	window := 0
	windows := make(map[int]int)
	for _, op := range p.Ops {
		if op.Kind == OpBarrier {
			window++
			continue
		}
		windows[op.Inst.ID] = window
	}
	insts := p.Instances()
	for j := 1; j < len(insts); j++ {
		for i := 0; i < j; i++ {
			a, b := insts[i], insts[j]
			if windows[a.ID] != windows[b.ID] {
				continue
			}
			for _, aa := range a.Accesses {
				for _, ba := range b.Accesses {
					if aa.Buf.ID != ba.Buf.ID || !aa.Interval.Overlaps(ba.Interval) {
						continue
					}
					if aa.Mode.Writes() || ba.Mode.Writes() {
						edges[[2]int{a.ID, b.ID}] = true
					}
				}
			}
		}
	}
	return edges
}

// TestQuickBuildDepsMatchesOracle pits BuildDeps against the brute-
// force oracle over randomized plans.
func TestQuickBuildDepsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 200; trial++ {
		dir := mem.NewDirectory(1)
		nbufs := 1 + rng.Intn(3)
		bufs := make([]*mem.Buffer, nbufs)
		for i := range bufs {
			bufs[i] = dir.Register("b", 256, 4)
		}
		modes := []Mode{Read, Write, ReadWrite}

		var p Plan
		nops := 3 + rng.Intn(15)
		for o := 0; o < nops; o++ {
			if rng.Intn(6) == 0 {
				p.Barrier()
				continue
			}
			// Kernel with 1-2 random accesses.
			var accs []Access
			for a := 0; a < 1+rng.Intn(2); a++ {
				lo := rng.Int63n(200)
				accs = append(accs, Access{
					Buf:      bufs[rng.Intn(nbufs)],
					Interval: mem.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(56)},
					Mode:     modes[rng.Intn(3)],
				})
			}
			frozen := append([]Access(nil), accs...)
			k := &Kernel{
				Name: "k", Size: 256,
				Accesses: func(lo, hi int64) []Access { return frozen },
			}
			p.Submit(k, 0, 256, Unpinned, -1)
		}

		BuildDeps(&p)
		want := oracleDeps(&p)

		got := make(map[[2]int]bool)
		for _, in := range p.Instances() {
			for _, d := range in.Deps {
				got[[2]int{d.ID, in.ID}] = true
			}
		}
		for e := range want {
			if !got[e] {
				t.Fatalf("trial %d: missing edge %v", trial, e)
			}
		}
		for e := range got {
			if !want[e] {
				t.Fatalf("trial %d: spurious edge %v", trial, e)
			}
		}
		// Succs must mirror Deps.
		for _, in := range p.Instances() {
			for _, s := range in.Succs {
				if !got[[2]int{in.ID, s.ID}] {
					t.Fatalf("trial %d: succ %v->%v without dep", trial, in.ID, s.ID)
				}
			}
		}
		if !IsDAGAcyclic(&p) {
			t.Fatalf("trial %d: cycle", trial)
		}
	}
}

// scanDeps is the reference history scan BuildDeps replaced: every
// access is checked against every earlier access to the same buffer
// since the last barrier. It returns, by instance ID, the predecessor
// IDs in discovery order and the successor IDs in append order,
// without touching the plan.
func scanDeps(p *Plan) (deps, succs map[int][]int) {
	type past struct {
		inst *Instance
		acc  Access
	}
	deps = make(map[int][]int)
	succs = make(map[int][]int)
	hist := make(map[int][]past)
	for _, op := range p.Ops {
		if op.Kind == OpBarrier {
			hist = make(map[int][]past)
			continue
		}
		in := op.Inst
		depSet := make(map[int]bool)
		for _, a := range in.Accesses {
			for _, h := range hist[a.Buf.ID] {
				if h.inst == in || depSet[h.inst.ID] {
					continue
				}
				if !a.Interval.Overlaps(h.acc.Interval) {
					continue
				}
				conflict := (a.Mode.Reads() && h.acc.Mode.Writes()) ||
					(a.Mode.Writes() && h.acc.Mode.Writes()) ||
					(a.Mode.Writes() && h.acc.Mode.Reads())
				if conflict {
					depSet[h.inst.ID] = true
					deps[in.ID] = append(deps[in.ID], h.inst.ID)
					succs[h.inst.ID] = append(succs[h.inst.ID], in.ID)
				}
			}
		}
		for _, a := range in.Accesses {
			hist[a.Buf.ID] = append(hist[a.Buf.ID], past{inst: in, acc: a})
		}
	}
	return deps, succs
}

// randomPlan builds a plan of up to maxOps operations whose accesses
// mix the shapes the segment map must get right: random, whole-buffer,
// adjacent to and nested inside the previous access, empty, and
// several accesses of one instance to the same buffer; barriers are
// interleaved.
func randomPlan(rng *rand.Rand, maxOps int) *Plan {
	const size = 512
	dir := mem.NewDirectory(1)
	bufs := make([]*mem.Buffer, 1+rng.Intn(3))
	for i := range bufs {
		bufs[i] = dir.Register("b", size, 4)
	}
	modes := []Mode{Read, Write, ReadWrite}
	prev := mem.Interval{Lo: 0, Hi: 1}
	next := func() mem.Interval {
		var iv mem.Interval
		switch rng.Intn(6) {
		case 0: // whole buffer
			iv = mem.Interval{Lo: 0, Hi: size}
		case 1: // adjacent to the previous access
			lo := min(prev.Hi, size-1)
			iv = mem.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(size-lo)}
		case 2: // nested inside the previous access
			if prev.Len() > 0 {
				lo := prev.Lo + rng.Int63n(prev.Len())
				iv = mem.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(prev.Hi-lo)}
			}
		case 3: // empty
			lo := rng.Int63n(size)
			iv = mem.Interval{Lo: lo, Hi: lo}
		default:
			lo := rng.Int63n(size)
			iv = mem.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(min(64, size-lo))}
		}
		if !iv.Empty() {
			prev = iv
		}
		return iv
	}
	p := new(Plan)
	nops := 1 + rng.Intn(maxOps)
	for o := 0; o < nops; o++ {
		if rng.Intn(12) == 0 {
			p.Barrier()
			continue
		}
		var accs []Access
		for a := 0; a < 1+rng.Intn(4); a++ {
			accs = append(accs, Access{
				Buf:      bufs[rng.Intn(len(bufs))],
				Interval: next(),
				Mode:     modes[rng.Intn(3)],
			})
		}
		k := &Kernel{
			Name: "k", Size: size,
			Accesses: func(lo, hi int64) []Access { return accs },
		}
		p.Submit(k, 0, size, Unpinned, -1)
	}
	return p
}

// TestBuildDepsMatchesScan pins the dependence relation exactly: over
// random plans, BuildDeps yields the reference scan's successor lists
// (order included) and its predecessor sets, with every Deps list
// ascending by ID.
func TestBuildDepsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 600; trial++ {
		p := randomPlan(rng, 300)
		wantDeps, wantSuccs := scanDeps(p)
		BuildDeps(p)
		for _, in := range p.Instances() {
			var gotSuccs, gotDeps []int
			for _, s := range in.Succs {
				gotSuccs = append(gotSuccs, s.ID)
			}
			for _, d := range in.Deps {
				gotDeps = append(gotDeps, d.ID)
			}
			if !reflect.DeepEqual(gotSuccs, wantSuccs[in.ID]) {
				t.Fatalf("trial %d: %v succs = %v, scan %v", trial, in, gotSuccs, wantSuccs[in.ID])
			}
			if !slices.IsSorted(gotDeps) {
				t.Fatalf("trial %d: %v deps %v not ascending", trial, in, gotDeps)
			}
			want := slices.Clone(wantDeps[in.ID])
			slices.Sort(want)
			if !slices.Equal(gotDeps, want) {
				t.Fatalf("trial %d: %v deps = %v, scan %v", trial, in, gotDeps, want)
			}
		}
	}
}
