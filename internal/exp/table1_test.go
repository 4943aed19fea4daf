package exp

import (
	"reflect"
	"testing"

	"heteropart/internal/analyzer"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/strategy"
)

// TestTable1MatchesValidateRanking: Table 1 reads its makespans from the
// shared runner instead of calling analyzer.ValidateRanking. For every
// Table 1 case the runner's makespans must equal ValidateRanking's
// exactly, and Rank over ValidateRanking's own times must reproduce its
// verdict.
func TestTable1MatchesValidateRanking(t *testing.T) {
	plat := device.PaperPlatform(12)
	env := NewEnv(plat, 2, nil)
	for _, c := range table1Cases {
		got, err := table1Case(env, c.app, c.sync)
		if err != nil {
			t.Fatalf("%s sync=%d: %v", c.app, c.sync, err)
		}
		app, err := apps.ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		want, err := analyzer.ValidateRanking(app, apps.Variant{Sync: c.sync, Spaces: 1 + len(plat.Accels)}, plat, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Times, want.Times) {
			t.Errorf("%s sync=%d: runner times %v, ValidateRanking times %v", c.app, c.sync, got.Times, want.Times)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s sync=%d: runner validation %+v, ValidateRanking %+v", c.app, c.sync, got, want)
		}
		again := analyzer.Rank(want.Report, want.Times)
		if !reflect.DeepEqual(again.Empirical, want.Empirical) || again.Matches != want.Matches {
			t.Errorf("%s sync=%d: Rank gives %v (matches %t), ValidateRanking %v (matches %t)",
				c.app, c.sync, again.Empirical, again.Matches, want.Empirical, want.Matches)
		}
	}
}
