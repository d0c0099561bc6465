package mrcc_test

import (
	"context"
	"fmt"
	"math/rand"

	"mrcc"
)

// ExampleRun clusters two tight Gaussian clusters living in overlapping
// subspaces of a 5-dimensional space plus background noise, and prints
// each cluster's relevant axes.
func ExampleRun() {
	rng := rand.New(rand.NewSource(11))
	var rows [][]float64
	for i := 0; i < 1200; i++ { // cluster in axes {0, 1, 2}
		rows = append(rows, []float64{
			0.2 + 0.02*rng.NormFloat64(),
			0.3 + 0.02*rng.NormFloat64(),
			0.2 + 0.02*rng.NormFloat64(),
			rng.Float64(), rng.Float64(),
		})
	}
	for i := 0; i < 1200; i++ { // cluster in axes {1, 2, 3}
		rows = append(rows, []float64{
			rng.Float64(),
			0.8 + 0.02*rng.NormFloat64(),
			0.8 + 0.02*rng.NormFloat64(),
			0.6 + 0.02*rng.NormFloat64(),
			rng.Float64(),
		})
	}
	for i := 0; i < 240; i++ { // noise
		rows = append(rows, []float64{
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
		})
	}

	ds, err := mrcc.DatasetFromRows(rows)
	if err != nil {
		panic(err)
	}
	res, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: ds}, mrcc.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", res.NumClusters())
	for _, c := range res.Clusters {
		fmt.Printf("cluster %d relevant axes: %v\n", c.ID, c.RelevantAxes())
	}
	// Output:
	// clusters: 2
	// cluster 0 relevant axes: [0 1 2]
	// cluster 1 relevant axes: [1 2 3]
}
