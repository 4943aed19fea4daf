package strategy

import (
	"reflect"
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/rt"
	"heteropart/internal/sched"
)

// TestSeededPerfSharedMaterialization: a seeded DP-Perf run trains and
// measures on one materialization (one dependence build). Its measured
// result must equal the one two fresh materializations give — a
// training run on the first, a measured run on the second.
func TestSeededPerfSharedMaterialization(t *testing.T) {
	plat := device.PaperPlatform(12)
	cases := []struct {
		app string
		n   int64
	}{
		{"BlackScholes", 0}, {"MatrixMul", 0}, {"HotSpot", 0}, {"Nbody", 0},
		{"Cholesky", 8192},
	}
	for _, c := range cases {
		build := func() *apps.Problem {
			t.Helper()
			app, err := apps.ByName(c.app)
			if err != nil {
				t.Fatal(err)
			}
			p, err := app.Build(apps.Variant{N: c.n, Spaces: 1 + len(plat.Accels)})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}

		p := build()
		pl, err := (DPPerf{}).Plan(p, plat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Scheduler.Seeded {
			t.Fatalf("%s: DP-Perf plan is not seeded", c.app)
		}
		shared, err := Execute(pl, p, plat, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.app, err)
		}

		q := build()
		trainer := sched.NewPerf()
		trainPlan, err := pl.Materialize(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Execute(rt.Config{Platform: plat, Scheduler: trainer}, trainPlan, q.Dir); err != nil {
			t.Fatalf("%s: training run: %v", c.app, err)
		}
		q.Dir.Reset()
		measured := sched.NewPerf()
		measured.Seed(trainer.Snapshot())
		measuredPlan, err := pl.Materialize(q)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := rt.Execute(rt.Config{Platform: plat, Scheduler: measured}, measuredPlan, q.Dir)
		if err != nil {
			t.Fatalf("%s: measured run: %v", c.app, err)
		}

		if shared.Result.Makespan <= 0 || shared.Result.Instances == 0 {
			t.Fatalf("%s: empty measured run %+v", c.app, *shared.Result)
		}
		if !reflect.DeepEqual(shared.Result, fresh) {
			t.Errorf("%s: shared materialization measured %+v, two fresh ones %+v", c.app, *shared.Result, *fresh)
		}
	}
}
