package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"heteropart/internal/rt"
)

// dynStats are the simulated statistics of one dyn-chunks point. They
// are virtual-time facts of the simulation, identical on every host, so
// a change that only makes the simulator faster leaves all of them
// unchanged.
type dynStats struct {
	MakespanNs int64 `json:"makespan_ns"`
	Instances  int   `json:"instances"`
	Transfers  int   `json:"transfers"`
	Bytes      int64 `json:"bytes"`
	Decisions  int   `json:"decisions"`
	// Edges counts the dependence edges of the point's task graph.
	Edges int `json:"edges"`
}

// statsOf reads a run's statistics; edges come from the task graph and
// are filled in separately.
func statsOf(res *rt.Result) dynStats {
	return dynStats{
		MakespanNs: int64(res.Makespan),
		Instances:  res.Instances,
		Transfers:  res.TransferCount,
		Bytes:      res.HtoDBytes + res.DtoHBytes + res.P2PBytes,
		Decisions:  res.Decisions,
	}
}

//go:embed golden_dyn.json
var goldenJSON []byte

// golden maps dynPoint.String() to the point's expected statistics.
type golden map[string]dynStats

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden_dyn.json: %w", err)
	}
	for _, pt := range dynPoints() {
		if _, ok := g[pt.String()]; !ok {
			return nil, fmt.Errorf("golden_dyn.json has no entry for %s", pt)
		}
	}
	return g, nil
}

// check compares a point's statistics with the golden. Edges are
// compared only when withEdges is set (the untimed runs do not build
// a separate task graph).
func (g golden) check(pt dynPoint, got dynStats, withEdges bool) error {
	want, ok := g[pt.String()]
	if !ok {
		return fmt.Errorf("%s: no golden entry", pt)
	}
	if !withEdges {
		got.Edges = want.Edges
	}
	if got != want {
		return fmt.Errorf("%s: simulated statistics %+v differ from golden %+v", pt, got, want)
	}
	return nil
}

// writeGolden records every point's statistics from the current tree.
func writeGolden(path string) error {
	st, err := newDynState(1)
	if err != nil {
		return err
	}
	g := make(golden)
	for _, pt := range dynPoints() {
		res, err := st.run(pt)
		if err != nil {
			return err
		}
		s := statsOf(res)
		if s.Edges, err = st.edges(pt); err != nil {
			return err
		}
		g[pt.String()] = s
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
