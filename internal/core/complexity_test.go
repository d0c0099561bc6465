package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/obs"
)

// complexityRun is one run of the complexity sweep: the shape it ran
// at and the deterministic counts its Stats reported.
type complexityRun struct {
	name    string
	sources int // trees the run clustered through their union index
	stats   *obs.Stats
}

// complexityBand is one of the paper's complexity claims (PAPER.md §1)
// as a bound on a count per unit of input. The bound comes from the
// claim, not from a reading of the code: a band holds at every point of
// the sweep, so a cost that grows faster than the claim allows fails it
// somewhere along the sweep.
type complexityBand struct {
	name  string
	claim string
	// measure returns the run's count per unit of input and the band's
	// bound for that run's shape.
	measure func(r complexityRun) (got, bound float64)
}

// complexityBands are the bands TestComplexityBands holds.
var complexityBands = []complexityBand{
	{
		name: "index bytes per cell",
		claim: "the Counting-tree takes O(H·η·d) space, memory linear in H: an index entry keeps its loc (8 B), " +
			"its parent entry (4), its point count (4), its face sum (8), one Ref per source (4 each) and at most " +
			"one run offset (4), at every level",
		measure: func(r complexityRun) (float64, float64) {
			var cells int64
			for _, n := range r.stats.Counters.CellsPerLevel {
				cells += n
			}
			index := r.stats.TreeBytes - r.stats.ArenaBytes
			return float64(index) / float64(cells), float64(32 + 4*(r.sources-1))
		},
	},
}

// uniformPoints returns n points drawn uniformly from [0,1)^d.
func uniformPoints(d, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

// complexitySweep runs the pipeline with stats on over small uniform
// sets, d = 8, at H = 4, 16 and 60 (MaxLevels), once over one tree and
// once over the union index of two trees that split the points. Each
// level index also has a fixed header of a few hundred bytes, a term in
// H that the bands leave out: at 6,000 points it spreads to under
// 0.05 B a cell at H = 60.
func complexitySweep(t *testing.T) []complexityRun {
	t.Helper()
	const d, n = 8, 6000
	pts := uniformPoints(d, n, 34)
	var runs []complexityRun
	for _, h := range []int{4, 16, ctree.MaxLevels} {
		for _, sources := range []int{1, 2} {
			trees := make([]*ctree.Tree, sources)
			for s := range trees {
				ds := &dataset.Dataset{Dims: d, Points: pts[s*n/sources : (s+1)*n/sources]}
				tr, err := ctree.Build(ds, h, ctree.BuildOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				trees[s] = tr
			}
			res, err := core.Run(context.Background(), core.Input{Trees: trees}, core.Config{H: h, Workers: 1, CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, complexityRun{fmt.Sprintf("H=%d/sources=%d", h, sources), sources, res.Stats})
		}
	}
	return runs
}

// TestComplexityBands holds the deterministic complexity bands over the
// sweep: every band's count per unit of input stays under its bound at
// every H and source count.
func TestComplexityBands(t *testing.T) {
	runs := complexitySweep(t)
	for _, b := range complexityBands {
		t.Run(b.name, func(t *testing.T) {
			for _, r := range runs {
				got, bound := b.measure(r)
				t.Logf("%s: %.2f (bound %.0f)", r.name, got, bound)
				if got > bound {
					t.Errorf("%s: %.2f exceeds the bound %.0f (%s)", r.name, got, bound, b.claim)
				}
			}
		})
	}
}
