// Quickstart: cluster a small synthetic dataset with the public API.
//
// Two Gaussian clusters live in different 3-axis subspaces of a
// 6-dimensional space; MrCC finds both, tells us which axes matter to
// each, and flags the uniform background as noise — with no "number of
// clusters" parameter.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mrcc"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	var rows [][]float64

	// The two clusters live in different but overlapping subspaces and
	// sit far apart along their shared axes 2 and 3. (Clusters whose
	// subspaces share no axis occupy the same region of each other's
	// subspace by definition and would be reported as one cluster —
	// Definition 2 of the paper.)
	//
	// Cluster A: tight in axes 0,1,2,3 around (0.2, 0.3, 0.2, 0.2).
	for i := 0; i < 1500; i++ {
		rows = append(rows, []float64{
			0.2 + 0.02*rng.NormFloat64(),
			0.3 + 0.02*rng.NormFloat64(),
			0.2 + 0.02*rng.NormFloat64(),
			0.2 + 0.02*rng.NormFloat64(),
			rng.Float64(), rng.Float64(),
		})
	}
	// Cluster B: tight in axes 2,3,4,5 around (0.8, 0.8, 0.2, 0.5).
	for i := 0; i < 1200; i++ {
		rows = append(rows, []float64{
			rng.Float64(), rng.Float64(),
			0.8 + 0.02*rng.NormFloat64(),
			0.8 + 0.02*rng.NormFloat64(),
			0.2 + 0.02*rng.NormFloat64(),
			0.5 + 0.02*rng.NormFloat64(),
		})
	}
	// Background noise.
	for i := 0; i < 300; i++ {
		rows = append(rows, []float64{
			rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(),
		})
	}

	ds, err := mrcc.DatasetFromRows(rows)
	if err != nil {
		log.Fatal(err)
	}
	// Paper defaults: α=1e-10, H=4.
	res, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: ds}, mrcc.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("found %d correlation clusters\n", res.NumClusters())
	for _, c := range res.Clusters {
		fmt.Printf("  cluster %d: %d points, relevant axes %v\n",
			c.ID, c.Size, c.RelevantAxes())
	}
	noise := 0
	for _, l := range res.Labels {
		if l == mrcc.Noise {
			noise++
		}
	}
	fmt.Printf("  noise: %d of %d points\n", noise, len(rows))
	fmt.Printf("first point's label: %d (cluster A), last point's label: %d (noise)\n",
		res.Labels[0], res.Labels[len(rows)-1])
}
