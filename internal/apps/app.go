// Package apps implements the paper's six evaluation applications
// (Table II) plus a Class-V specimen:
//
//	MatrixMul     SK-One   dense matrix-matrix multiply (NVIDIA SDK)
//	BlackScholes  SK-One   European option pricing (NVIDIA SDK)
//	Nbody         SK-Loop  body interactions over time (Mont-Blanc)
//	HotSpot       SK-Loop  thermal grid simulation (Rodinia)
//	STREAM-Seq    MK-Seq   copy/scale/add/triad once (STREAM)
//	STREAM-Loop   MK-Loop  copy/scale/add/triad iterated (STREAM)
//	Cholesky      MK-DAG   blocked tile factorization (extension)
//	Convolution   MK-Seq   separable 2D convolution with a natural
//	                       inter-kernel sync requirement (extension)
//	Triangular    SK-One   imbalanced packed-triangular reduction
//	                       (Glinda ICS'14 extension)
//
// Every application provides real Go kernel implementations (compute
// mode, used by correctness tests), a calibrated cost model (timing
// mode, used by the paper-scale benchmarks), OmpSs-style access
// declarations, and its kernel structure for the classifier.
package apps

import (
	"fmt"
	"strings"

	"heteropart/internal/apierr"
	"heteropart/internal/classify"
	"heteropart/internal/mem"
	"heteropart/internal/names"
	"heteropart/internal/task"
)

// SyncMode selects the inter-kernel synchronization variant for
// applications evaluated both ways (STREAM-Seq/Loop, Section IV-B3).
type SyncMode int

const (
	// SyncDefault uses the application's natural behaviour.
	SyncDefault SyncMode = iota
	// SyncForced adds a taskwait after every kernel ("w" variants).
	SyncForced
	// SyncNone removes inter-kernel taskwaits ("w/o" variants).
	SyncNone
)

// Variant parameterizes one problem instantiation.
type Variant struct {
	// N is the problem size in iteration-space elements; 0 uses the
	// application default (the paper's evaluation size).
	N int64
	// Iters is the loop trip count for iterative classes; 0 uses the
	// default.
	Iters int
	// Sync selects the synchronization variant.
	Sync SyncMode
	// Spaces is the number of memory spaces (1 + accelerators);
	// 0 means 2 (the paper's CPU+GPU platform).
	Spaces int
	// Compute allocates real data and enables kernel execution.
	Compute bool
}

func (v Variant) withDefaults(defN int64, defIters int) Variant {
	if v.N <= 0 {
		v.N = defN
	}
	if v.Iters <= 0 {
		v.Iters = defIters
	}
	if v.Spaces <= 0 {
		v.Spaces = 2
	}
	return v
}

// Phase is one kernel invocation in the unrolled program order.
type Phase struct {
	Kernel *task.Kernel
	// SyncAfter marks an original taskwait following this kernel.
	SyncAfter bool
}

// Problem is an instantiated workload: buffers registered in a fresh
// directory, the unrolled phase list, and (in compute mode) a
// verification closure comparing against the sequential reference.
type Problem struct {
	AppName string
	N       int64
	Iters   int
	Dir     *mem.Directory
	Phases  []Phase
	// Unique holds one representative kernel per distinct kernel name
	// in first-appearance order (Glinda profiles these).
	Unique []*task.Kernel
	// Structure is the kernel structure for the classifier.
	Structure classify.Structure
	// AtomicPhases marks each phase as one indivisible task instance
	// (DAG applications whose kernels operate on whole tiles);
	// strategies must not chunk them.
	AtomicPhases bool
	// Verify checks computed results against the reference; nil in
	// timing-only mode.
	Verify func() error
}

// Class classifies the problem's structure. Registry-built problems
// always carry a valid structure; a hand-built problem with an invalid
// one classifies as the zero class (SK-One).
func (p *Problem) Class() classify.Class {
	c, _ := classify.Classify(p.Structure)
	return c
}

// NeedsSync reports whether this problem's phases include inter-kernel
// synchronization.
func (p *Problem) NeedsSync() bool {
	for i, ph := range p.Phases {
		if ph.SyncAfter && i < len(p.Phases)-1 {
			return true
		}
	}
	return false
}

// KernelByName returns the representative kernel with the given name.
func (p *Problem) KernelByName(name string) *task.Kernel {
	for _, k := range p.Unique {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// collectUnique builds the Unique list from phases.
func collectUnique(phases []Phase) []*task.Kernel {
	var out []*task.Kernel
	seen := make(map[string]bool)
	for _, ph := range phases {
		if !seen[ph.Kernel.Name] {
			seen[ph.Kernel.Name] = true
			out = append(out, ph.Kernel)
		}
	}
	return out
}

// App builds problems.
type App interface {
	// Name is the application name as the paper spells it.
	Name() string
	// DefaultN is the paper's evaluation problem size.
	DefaultN() int64
	// DefaultIters is the paper's loop trip count (1 for non-loop).
	DefaultIters() int
	// Build instantiates a problem.
	Build(v Variant) (*Problem, error)
}

// Registry returns all applications in Table II order (plus the
// Class-V extension).
func Registry() []App {
	return []App{
		NewMatrixMul(),
		NewBlackScholes(),
		NewNbody(),
		NewHotSpot(),
		NewStreamSeq(),
		NewStreamLoop(),
		NewCholesky(),
		NewConvolution(),
		NewTriangular(),
	}
}

// ByName finds a registered application. Matching is
// case-insensitive; an unknown name suggests the closest registered
// spelling when one is close.
func ByName(name string) (App, error) {
	reg := Registry()
	for _, a := range reg {
		if strings.EqualFold(a.Name(), name) {
			return a, nil
		}
	}
	known := make([]string, len(reg))
	for i, a := range reg {
		known[i] = a.Name()
	}
	if sug := names.Closest(name, known); sug != "" {
		return nil, fmt.Errorf("apps: %w %q (did you mean %q?)", apierr.ErrUnknownApp, name, sug)
	}
	return nil, fmt.Errorf("apps: %w %q", apierr.ErrUnknownApp, name)
}

// rw is shorthand for a one-to-one interval access.
func rw(b *mem.Buffer, lo, hi int64, m task.Mode) task.Access {
	return task.Access{Buf: b, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: m}
}

// checkClose verifies two float32 slices elementwise within a relative
// tolerance, reporting the first mismatch.
func checkClose(name string, got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d vs %d", name, len(got), len(want))
	}
	return checkPeriodic(name, got, want, tol)
}

// checkPeriodic is checkClose against a reference that repeats with
// period len(want): got[i] is compared with want[i%len(want)], and the
// first mismatch is reported by its index in got.
func checkPeriodic(name string, got, want []float32, tol float64) error {
	if len(want) == 0 {
		if len(got) == 0 {
			return nil
		}
		return fmt.Errorf("%s: empty reference for %d elements", name, len(got))
	}
	for off := 0; off < len(got); off += len(want) {
		for j, gv := range got[off:min(off+len(want), len(got))] {
			g, w := float64(gv), float64(want[j])
			d := g - w
			if d < 0 {
				d = -d
			}
			scale := 1.0
			if w > 1 || w < -1 {
				if w < 0 {
					scale = -w
				} else {
					scale = w
				}
			}
			if d > tol*scale {
				return fmt.Errorf("%s[%d] = %g, want %g", name, off+j, g, w)
			}
		}
	}
	return nil
}
