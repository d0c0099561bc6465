// Breast-cancer screening: the paper's real-data scenario (Section IV-C
// and Figure 5t) on the KDD Cup 2008 surrogate.
//
// A screening exam yields four X-ray views; from each region of interest
// (ROI) 25 features are extracted automatically. Malignant ROIs share a
// tight feature signature in a low-dimensional subspace, which is why a
// subspace clustering method can surface them without labels. This
// example clusters each view and reports how well the clusters align
// with the (held-out) diagnosis.
//
// Run with: go run ./examples/breastcancer
package main

import (
	"context"
	"fmt"
	"log"

	"mrcc"
	"mrcc/internal/eval"
	"mrcc/internal/synthetic"
)

func main() {
	for _, view := range synthetic.KDDViews() {
		// 1/5 of the paper's per-view ROI count keeps the example quick.
		ds, gt, err := synthetic.KDDCup2008Surrogate(view, synthetic.KDDConfig{
			ROIs: 5000, Seed: 2008,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: ds}, mrcc.Config{})
		if err != nil {
			log.Fatal(err)
		}
		rel := make([][]bool, len(res.Clusters))
		for i, c := range res.Clusters {
			rel[i] = c.Relevant
		}
		rep, err := eval.Compare(
			&eval.Clustering{Labels: res.Labels, Relevant: rel},
			&eval.Clustering{Labels: gt.Labels, Relevant: gt.Relevant},
		)
		if err != nil {
			log.Fatal(err)
		}

		// How concentrated are the malignant ROIs? Find the cluster with
		// the highest malignant share.
		bestCluster, bestShare, bestMalig := -1, 0.0, 0
		for _, c := range res.Clusters {
			malig := 0
			for i, l := range res.Labels {
				if l == c.ID && gt.Labels[i] == 1 {
					malig++
				}
			}
			if c.Size > 0 {
				if share := float64(malig) / float64(c.Size); share > bestShare {
					bestCluster, bestShare, bestMalig = c.ID, share, malig
				}
			}
		}
		totalMalig := 0
		for _, l := range gt.Labels {
			if l == 1 {
				totalMalig++
			}
		}
		fmt.Printf("%-9s: %d ROIs, %d clusters, Quality vs diagnosis %.3f\n",
			view, ds.Len(), res.NumClusters(), rep.Quality)
		if bestCluster >= 0 {
			fmt.Printf("           cluster %d is %.0f%% malignant (%d of %d malignant ROIs, base rate %.1f%%)\n",
				bestCluster, 100*bestShare, bestMalig, totalMalig,
				100*float64(totalMalig)/float64(ds.Len()))
		}
	}
}
