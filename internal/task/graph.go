package task

import (
	"slices"
	"sort"

	"heteropart/internal/mem"
)

// BuildDeps computes the data-dependency edges of a plan, mirroring the
// OmpSs runtime's dependence analysis: a newly submitted instance
// depends on every earlier instance that accessed an overlapping region
// of the same buffer when at least one of the two accesses writes (RAW,
// WAR and WAW edges, transitively redundant ones included). Barriers
// order everything before them ahead of everything after them, so
// dependence tracking restarts at each barrier (the runtime enforces
// the barrier itself).
//
// Each buffer keeps an ordered segment map (see segMap) listing, per
// region, the instances that wrote and read it since the last barrier,
// so an access visits only the regions it overlaps: a read consults
// their writers, a write consults writers and readers.
//
// Edges are deduplicated. Each Deps list ascends by instance ID (which
// is submission order); each Succs list is in the successors'
// submission order.
func BuildDeps(p *Plan) {
	insts := p.Instances()
	for _, in := range insts {
		in.Deps = nil
		in.Succs = nil
	}
	// Instances are named by their submission index k. seen[q] == k+1
	// marks insts[q] as already a predecessor of insts[k].
	seen := make([]int32, len(insts))
	bufs := make(map[int]*segMap)
	var preds []int32
	k := int32(0)
	for _, op := range p.Ops {
		if op.Kind == OpBarrier {
			for _, m := range bufs {
				*m = (*m)[:0]
			}
			continue
		}
		in := op.Inst
		preds = preds[:0]
		for _, a := range in.Accesses {
			if m := bufs[a.Buf.ID]; m != nil {
				preds = m.conflicts(a.Interval, a.Mode.Writes(), seen, k+1, preds)
			}
		}
		if len(preds) > 0 {
			slices.Sort(preds)
			in.Deps = make([]*Instance, len(preds))
			for i, q := range preds {
				pre := insts[q]
				in.Deps[i] = pre
				pre.Succs = append(pre.Succs, in)
			}
		}
		for _, a := range in.Accesses {
			m := bufs[a.Buf.ID]
			if m == nil {
				m = new(segMap)
				bufs[a.Buf.ID] = m
			}
			m.record(a.Interval, a.Mode.Writes(), k)
		}
		k++
	}
	p.depsBuilt = true
}

// EnsureDeps builds the plan's dependence graph unless it is current:
// a plan executed again without a Submit or Barrier in between (a
// seeded DP-Perf run's training and measured executions) keeps the
// edges of its first build.
func EnsureDeps(p *Plan) {
	if !p.depsBuilt {
		BuildDeps(p)
	}
}

// segment is a region of one buffer that every access recorded since
// the last barrier covers entirely or not at all, so one pair of lists
// names all its accessors. The lists hold submission indices in
// ascending order; a list may share its backing array with the
// neighbour it was split from, with capacity clipped to its length, so
// the next append copies.
type segment struct {
	lo, hi  int64
	writers []int32 // instances that wrote the region (out or inout)
	readers []int32 // instances that only read it (in)
}

// segMap is one buffer's segments, sorted by lo and pairwise disjoint;
// gaps are elements nobody accessed since the last barrier.
type segMap []segment

// first returns the index of the first segment ending after x.
func (m segMap) first(x int64) int {
	return sort.Search(len(m), func(i int) bool { return m[i].hi > x })
}

// conflicts appends to preds every instance, not yet marked with
// stamp, that an access to iv must follow: the writers of every
// overlapped segment, plus their readers when the access writes.
func (m segMap) conflicts(iv mem.Interval, write bool, seen []int32, stamp int32, preds []int32) []int32 {
	if iv.Empty() {
		return preds
	}
	for i := m.first(iv.Lo); i < len(m) && m[i].lo < iv.Hi; i++ {
		preds = mark(m[i].writers, seen, stamp, preds)
		if write {
			preds = mark(m[i].readers, seen, stamp, preds)
		}
	}
	return preds
}

// mark appends the entries of list not yet stamped, stamping them.
func mark(list, seen []int32, stamp int32, preds []int32) []int32 {
	for _, q := range list {
		if seen[q] != stamp {
			seen[q] = stamp
			preds = append(preds, q)
		}
	}
	return preds
}

// record adds instance k's access to iv: it splits the segments
// straddling iv's ends, fills the gaps inside iv with new segments, and
// lists k on every segment iv now covers exactly.
func (m *segMap) record(iv mem.Interval, write bool, k int32) {
	if iv.Empty() {
		return
	}
	m.split(iv.Lo)
	m.split(iv.Hi)
	s := *m
	i := s.first(iv.Lo)
	j, gaps, at := i, 0, iv.Lo
	for ; j < len(s) && s[j].lo < iv.Hi; j++ {
		if s[j].lo > at {
			gaps++
		}
		at = s[j].hi
	}
	if at < iv.Hi {
		gaps++
	}
	if gaps > 0 {
		// Open room after the window, then move the window right
		// while writing the gap segments in, last to first.
		s = append(s, make([]segment, gaps)...)
		copy(s[j+gaps:], s[j:])
		w := j + gaps - 1
		at = iv.Hi
		for r := j - 1; r >= i; r-- {
			seg := s[r]
			if seg.hi < at {
				s[w] = segment{lo: seg.hi, hi: at}
				w--
			}
			s[w] = seg
			w--
			at = seg.lo
		}
		if at > iv.Lo {
			s[w] = segment{lo: iv.Lo, hi: at}
		}
		j += gaps
		*m = s
	}
	for r := i; r < j; r++ {
		l := &s[r].readers
		if write {
			l = &s[r].writers
		}
		if n := len(*l); n == 0 || (*l)[n-1] != k {
			*l = append(*l, k)
		}
	}
}

// split cuts the segment strictly straddling x, if any, in two at x.
// Both halves keep the accessor lists.
func (m *segMap) split(x int64) {
	s := *m
	i := s.first(x)
	if i == len(s) || s[i].lo >= x {
		return
	}
	seg := s[i]
	seg.writers = seg.writers[:len(seg.writers):len(seg.writers)]
	seg.readers = seg.readers[:len(seg.readers):len(seg.readers)]
	s = append(s, segment{})
	copy(s[i+1:], s[i:])
	s[i], s[i+1] = seg, seg
	s[i].hi, s[i+1].lo = x, x
	*m = s
}

// CriticalPathLen returns the longest dependency chain length (in
// instances) of a plan whose dependencies have been built. Barriers are
// not counted.
func CriticalPathLen(p *Plan) int {
	depth := make(map[int]int)
	longest := 0
	for _, in := range p.Instances() { // submission order is topological
		d := 1
		for _, pre := range in.Deps {
			if depth[pre.ID]+1 > d {
				d = depth[pre.ID] + 1
			}
		}
		depth[in.ID] = d
		if d > longest {
			longest = d
		}
	}
	return longest
}

// IsDAGAcyclic verifies the built dependence relation is acyclic (it
// must be, because edges only point from earlier to later submissions).
// Exposed for property tests.
func IsDAGAcyclic(p *Plan) bool {
	for _, in := range p.Instances() {
		for _, d := range in.Deps {
			if d.ID >= in.ID {
				return false
			}
		}
	}
	return true
}

// WriteFootprint returns the union of regions an instance writes, per
// buffer ID.
func WriteFootprint(in *Instance) map[int]mem.Set {
	out := make(map[int]mem.Set)
	for _, a := range in.Accesses {
		if !a.Mode.Writes() {
			continue
		}
		s := out[a.Buf.ID]
		s.Add(a.Interval)
		out[a.Buf.ID] = s
	}
	return out
}
