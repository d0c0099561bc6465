// Visualize: terminal scatter plots of what MrCC found — a text-mode
// rendition of the paper's Figure 1, showing how the same dataset looks
// in different 2-D projections and which clusters exist in which
// subspaces.
//
// Run with: go run ./examples/visualize
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mrcc"
	"mrcc/internal/plot"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	var rows [][]float64
	// Cluster A lives in axes {0,1}; cluster B in axes {1,2}; both are
	// invisible in some projections and obvious in others — the point
	// Figure 1 of the paper makes. Their means sit at grid-cell centers
	// of the method's coarsest analysis resolution and far apart on the
	// shared axis 1, so the two boxes stay disjoint.
	for i := 0; i < 900; i++ {
		rows = append(rows, []float64{
			0.125 + 0.025*rng.NormFloat64(),
			0.125 + 0.025*rng.NormFloat64(),
			rng.Float64(),
		})
	}
	for i := 0; i < 700; i++ {
		rows = append(rows, []float64{
			rng.Float64(),
			0.875 + 0.025*rng.NormFloat64(),
			0.625 + 0.025*rng.NormFloat64(),
		})
	}
	for i := 0; i < 60; i++ {
		rows = append(rows, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}

	ds, err := mrcc.DatasetFromRows(rows)
	if err != nil {
		log.Fatal(err)
	}
	res, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: ds}, mrcc.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MrCC found %d clusters:\n", res.NumClusters())
	for _, c := range res.Clusters {
		fmt.Printf("  cluster %d: %d points, relevant axes %v\n", c.ID, c.Size, c.RelevantAxes())
	}
	fmt.Println("\n" + plot.ClusterLegend(res.NumClusters()))
	for _, proj := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		fmt.Printf("\nprojection onto axes (%d, %d):\n", proj[0], proj[1])
		fmt.Print(plot.Scatter(rows, res.Labels, proj[0], proj[1], 64, 20))
	}
	fmt.Println("\ndensity along axis 1:")
	fmt.Print(plot.Histogram(rows, 1, 16, 48))
}
