// Package mem tracks where data lives on a heterogeneous platform.
//
// Buffers are arrays of fixed-size elements. Each memory space (host,
// one per accelerator) holds a set of element intervals that are valid
// there. The directory implements a simplified MSI-style protocol over
// intervals: reads require validity in the executing space (triggering
// transfers from a space that has the data), writes invalidate all other
// spaces, and a flush makes the host whole again (the paper's taskwait
// semantics).
package mem

import (
	"fmt"
	"sort"
)

// Interval is a half-open element range [Lo, Hi).
type Interval struct {
	Lo, Hi int64
}

// Empty reports whether the interval covers no elements.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Len returns the number of elements covered.
func (iv Interval) Len() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Overlaps reports whether two intervals share any element.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Lo < o.Hi && o.Lo < iv.Hi
}

// Intersect returns the common sub-interval (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	r := Interval{Lo: max64(iv.Lo, o.Lo), Hi: min64(iv.Hi, o.Hi)}
	if r.Empty() {
		return Interval{}
	}
	return r
}

// String renders the interval as [lo,hi).
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Set is a canonical set of elements: sorted, pairwise-disjoint,
// non-adjacent intervals. The zero value is the empty set.
//
// Add, Remove and Clear update the set in place, reusing its backing
// array. A Set is a small header over that array, so a value copy
// shares storage with the original: Clone a set before mutating a copy
// whose original must stay intact.
type Set struct {
	ivs []Interval
}

// NewSet builds a set from arbitrary intervals.
func NewSet(ivs ...Interval) Set {
	var s Set
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Intervals returns the canonical interval list (callers must not
// mutate it).
func (s Set) Intervals() []Interval { return s.ivs }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Len returns the total number of elements in the set.
func (s Set) Len() int64 {
	var n int64
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := Set{ivs: make([]Interval, len(s.ivs))}
	copy(c.ivs, s.ivs)
	return c
}

// Clear removes all elements.
func (s *Set) Clear() { s.ivs = s.ivs[:0] }

// from returns the index of the first interval ending after x: the
// first one that can hold x or anything beyond it.
func (s Set) from(x int64) int {
	return sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > x })
}

// splice replaces s.ivs[i:j] with repl in place.
func (s *Set) splice(i, j int, repl ...Interval) {
	if d := len(repl) - (j - i); d > 0 {
		s.ivs = append(s.ivs, make([]Interval, d)...)
		copy(s.ivs[j+d:], s.ivs[j:])
	} else if d < 0 {
		n := copy(s.ivs[i+len(repl):], s.ivs[j:])
		s.ivs = s.ivs[:i+len(repl)+n]
	}
	copy(s.ivs[i:], repl)
}

// Add unions iv into the set, merging overlapping and adjacent
// intervals.
func (s *Set) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// The window [i,j) holds every interval that overlaps or touches iv.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= iv.Lo })
	j := i + sort.Search(len(s.ivs)-i, func(k int) bool { return s.ivs[i+k].Lo > iv.Hi })
	if i < j {
		iv.Lo = min64(iv.Lo, s.ivs[i].Lo)
		iv.Hi = max64(iv.Hi, s.ivs[j-1].Hi)
	}
	s.splice(i, j, iv)
}

// Remove subtracts iv from the set.
func (s *Set) Remove(iv Interval) {
	if iv.Empty() {
		return
	}
	// The window [i,j) holds every interval that overlaps iv; only its
	// ends can keep a piece.
	i := s.from(iv.Lo)
	j := i + sort.Search(len(s.ivs)-i, func(k int) bool { return s.ivs[i+k].Lo >= iv.Hi })
	if i == j {
		return
	}
	var keep [2]Interval
	n := 0
	if first := s.ivs[i]; first.Lo < iv.Lo {
		keep[n] = Interval{Lo: first.Lo, Hi: iv.Lo}
		n++
	}
	if last := s.ivs[j-1]; last.Hi > iv.Hi {
		keep[n] = Interval{Lo: iv.Hi, Hi: last.Hi}
		n++
	}
	s.splice(i, j, keep[:n]...)
}

// Contains reports whether every element of iv is in the set.
func (s Set) Contains(iv Interval) bool {
	if iv.Empty() {
		return true
	}
	c, ok := s.covering(iv.Lo)
	return ok && c.Hi >= iv.Hi
}

// ContainsPoint reports whether element p is in the set.
func (s Set) ContainsPoint(p int64) bool {
	return s.Contains(Interval{Lo: p, Hi: p + 1})
}

// Overlaps reports whether any element of iv is in the set.
func (s Set) Overlaps(iv Interval) bool {
	if iv.Empty() {
		return false
	}
	i := s.from(iv.Lo)
	return i < len(s.ivs) && s.ivs[i].Lo < iv.Hi
}

// IntersectInterval returns the elements of iv present in the set.
func (s Set) IntersectInterval(iv Interval) Set {
	var out Set
	if iv.Empty() {
		return out
	}
	for _, cur := range s.ivs[s.from(iv.Lo):] {
		if cur.Lo >= iv.Hi {
			break
		}
		out.ivs = append(out.ivs, cur.Intersect(iv))
	}
	return out
}

// covering returns the interval of the set holding element p.
func (s Set) covering(p int64) (Interval, bool) {
	i := s.from(p)
	if i < len(s.ivs) && s.ivs[i].Lo <= p {
		return s.ivs[i], true
	}
	return Interval{}, false
}

// Missing returns the sub-intervals of iv NOT present in the set, in
// order.
func (s Set) Missing(iv Interval) []Interval {
	var out []Interval
	if iv.Empty() {
		return out
	}
	lo := iv.Lo
	for _, cur := range s.ivs[s.from(lo):] {
		if cur.Lo >= iv.Hi {
			break
		}
		if cur.Lo > lo {
			out = append(out, Interval{Lo: lo, Hi: min64(cur.Lo, iv.Hi)})
		}
		lo = max64(lo, cur.Hi)
		if lo >= iv.Hi {
			return out
		}
	}
	if lo < iv.Hi {
		out = append(out, Interval{Lo: lo, Hi: iv.Hi})
	}
	return out
}

// Union returns the set union with o.
func (s Set) Union(o Set) Set {
	out := s.Clone()
	for _, iv := range o.ivs {
		out.Add(iv)
	}
	return out
}

// Subtract returns s minus o.
func (s Set) Subtract(o Set) Set {
	out := s.Clone()
	for _, iv := range o.ivs {
		out.Remove(iv)
	}
	return out
}

// Equal reports element-wise set equality.
func (s Set) Equal(o Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// String renders the set for diagnostics.
func (s Set) String() string {
	if s.Empty() {
		return "{}"
	}
	out := "{"
	for i, iv := range s.ivs {
		if i > 0 {
			out += " "
		}
		out += iv.String()
	}
	return out + "}"
}
