package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"
)

// ---- dyn-chunks ---------------------------------------------------------

// dynApps, dynStrategies and dynLadder span the dyn-chunks points.
var (
	dynApps       = []string{"BlackScholes", "MatrixMul", "HotSpot", "Nbody"}
	dynStrategies = []string{"DP-Perf", "DP-Dep"}
	dynLadder     = []int{256, 512, 1024}
)

// dynPoint is one decide+execute run of the dyn-chunks workload.
type dynPoint struct {
	App      string
	Strategy string
	Chunks   int
}

func (p dynPoint) String() string { return fmt.Sprintf("%s/%s/%d", p.App, p.Strategy, p.Chunks) }

// dynPoints lists every point once, in a fixed order.
func dynPoints() []dynPoint {
	var out []dynPoint
	for _, a := range dynApps {
		for _, s := range dynStrategies {
			for _, m := range dynLadder {
				out = append(out, dynPoint{a, s, m})
			}
		}
	}
	return out
}

// dynGen yields the dyn-chunks passes: each pass runs every point once,
// in an order shuffled by the seed, so every pass does the same work.
type dynGen struct {
	rng    *rand.Rand
	points []dynPoint
}

func newDynGen(seed int64) *dynGen {
	return &dynGen{rng: rand.New(rand.NewSource(seed)), points: dynPoints()}
}

// next returns the following pass.
func (g *dynGen) next() []dynPoint {
	pass := append([]dynPoint(nil), g.points...)
	g.rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
	return pass
}

// ---- serve-mix ------------------------------------------------------------

// serve-mix traffic: an open loop at serveRate requests per second.
// Every serveNewEvery-th request asks for a key never requested before;
// the others pick one of serveHotKeys keys by a Zipf law.
const (
	serveRate     = 400
	serveHotKeys  = 32
	serveNewEvery = 5
	serveZipfS    = 1.1
)

var (
	serveApps       = []string{"BlackScholes", "MatrixMul", "HotSpot", "Nbody"}
	serveStrategies = []string{"", "SP-Single", "SP-Unified", "SP-Varied", "DP-Perf", "DP-Dep"}
	serveChunks     = []int{8, 16, 32, 64}
)

// serveKey is one distinct matchmaking request. An empty strategy
// leaves the choice to the matchmaker.
type serveKey struct {
	App      string `json:"app"`
	Strategy string `json:"strategy,omitempty"`
	N        int64  `json:"n"`
	Chunks   int    `json:"chunks"`
}

// serveReq is one scheduled request.
type serveReq struct {
	Due time.Duration // offset from the start of the phase
	Key int           // index into serveSchedule.Keys
	New bool          // first request for its key
}

// serveSchedule is one phase of serve-mix traffic.
type serveSchedule struct {
	Keys   []serveKey // the first serveHotKeys are the hot set
	Bodies [][]byte   // request body per key
	Reqs   []serveReq
}

// newServeSchedule generates a phase of the given length from a seed:
// the same seed and length give the same keys and sequence. The hot set
// is a fixed, even third of every (app, strategy, chunks) combination
// in a fixed popularity order, so what a hit costs does not depend on
// the seed; new keys walk seeded permutations of all combinations, so
// every stretch of them mixes cheap and costly requests alike. Sizes
// are drawn at random.
func newServeSchedule(seed int64, length time.Duration) *serveSchedule {
	rng := rand.New(rand.NewSource(seed))
	var combos []serveKey
	for _, a := range serveApps {
		for _, st := range serveStrategies {
			for _, c := range serveChunks {
				combos = append(combos, serveKey{App: a, Strategy: st, Chunks: c})
			}
		}
	}
	s := &serveSchedule{}
	seen := make(map[serveKey]bool)
	add := func(k serveKey) int {
		for {
			k.N = 64 * int64(64+rng.Intn(961)) // 4096 .. 65536
			if !seen[k] {
				break
			}
		}
		seen[k] = true
		s.Keys = append(s.Keys, k)
		return len(s.Keys) - 1
	}
	stride := len(combos) / serveHotKeys
	for i := 0; i < serveHotKeys; i++ {
		add(combos[i*stride])
	}
	var perm []int
	draw := func() int {
		if len(perm) == 0 {
			perm = rng.Perm(len(combos))
		}
		k := combos[perm[0]]
		perm = perm[1:]
		return add(k)
	}
	zipf := rand.NewZipf(rng, serveZipfS, 1, serveHotKeys-1)
	s.Reqs = make([]serveReq, int(length.Seconds()*serveRate))
	for i := range s.Reqs {
		r := serveReq{Due: time.Duration(i) * time.Second / serveRate}
		if i%serveNewEvery == serveNewEvery-1 {
			r.Key, r.New = draw(), true
		} else {
			r.Key = int(zipf.Uint64())
		}
		s.Reqs[i] = r
	}
	s.Bodies = make([][]byte, len(s.Keys))
	for i, k := range s.Keys {
		s.Bodies[i], _ = json.Marshal(k) // plain struct: cannot fail
	}
	return s
}
