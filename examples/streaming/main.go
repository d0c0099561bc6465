// Streaming: MrCC over a growing dataset using the Counting-tree's
// incremental insertion, with a snapshot hand-off at the end — all
// through the public mrcc API.
//
// The tree is the only state the method keeps between batches, and it
// is a handful of flat arena columns (cell counts, half-space counters,
// parent links) rather than a pointer structure. InsertBatch counts a
// new batch the way a build counts a dataset: the points are sorted by
// their cell path, and every run of points sharing a cell is counted in
// one descent — no re-scan of old data and no per-cell allocation —
// into a run of its own. The newest runs are united in one pass while
// the newest holds at least half the points of the one before it, so
// the tree is one run after 5k, 10k, 15k, 25k and 40k points and two
// after 20k, 30k and 35k, where the "tree" column sums the runs. After
// each batch the clustering phases re-run over the refreshed tree,
// reading its runs side by side; the paper's conclusion notes that
// MrCC's statistical test gets *stronger* as data accumulates, and this
// example shows exactly that: early batches are too sparse to confirm
// clusters, later ones lock onto all of them.
//
// Because the arena is plain columns, the final tree ships as a
// versioned snapshot (DESIGN.md §10): the example ends by saving it
// with mrcc.SaveTree, reloading it with mrcc.LoadTree, and reclustering
// on the loaded copy — the same warm-start the mrcc CLI exposes as
//
//	mrcc -in data.csv -save-tree tree.snap        # build once
//	mrcc -in data.csv -load-tree tree.snap ...    # recluster, no build
//
// (e.g. to sweep -alpha without re-counting the data).
//
// Run with: go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"mrcc"
	"mrcc/internal/synthetic"
)

func main() {
	// The full stream: 3 subspace clusters in 8 dimensions plus noise.
	full, _, err := synthetic.Generate(synthetic.Config{
		Dims: 8, Points: 40000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 5, MaxClusterDim: 7, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	rand.New(rand.NewSource(1)).Shuffle(full.Len(), func(i, j int) {
		full.Points[i], full.Points[j] = full.Points[j], full.Points[i]
	})

	tree, err := mrcc.NewTree(full.Dims, mrcc.DefaultH)
	if err != nil {
		log.Fatal(err)
	}
	seen := mrcc.NewDataset(full.Dims, full.Len())
	const batch = 5000
	for start := 0; start < full.Len(); start += batch {
		end := start + batch
		if end > full.Len() {
			end = full.Len()
		}
		// One call absorbs the whole batch (validated before the tree is
		// touched, counted in sorted order); Run over the tree writes
		// nothing, so the loop is just insert-then-run.
		if err := tree.InsertBatch(full.Points[start:end]); err != nil {
			log.Fatal(err)
		}
		for _, p := range full.Points[start:end] {
			seen.Append(p)
		}
		res, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: seen, Tree: tree}, mrcc.Config{})
		if err != nil {
			log.Fatal(err)
		}
		noise := 0
		for _, l := range res.Labels {
			if l == mrcc.Noise {
				noise++
			}
		}
		fmt.Printf("after %6d points: %d clusters, %4.1f%% noise, tree %5d KB\n",
			seen.Len(), res.NumClusters(),
			100*float64(noise)/float64(seen.Len()), tree.MemoryBytes()/1024)
	}

	// Hand-off: persist the accumulated tree, reload it as another
	// process would, and recluster without touching the raw stream
	// again. The snapshot round-trips the arena bit-exactly, so the
	// warm run reports the same clusters the last batch did.
	dir, err := os.MkdirTemp("", "mrcc-streaming-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "tree.snap")
	wrote, err := mrcc.SaveTree(snap, tree)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := mrcc.LoadTree(snap)
	if err != nil {
		log.Fatal(err)
	}
	warm, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: seen, Tree: loaded}, mrcc.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d KB on disk; warm-start recluster found %d clusters (no tree build)\n",
		wrote/1024, warm.NumClusters())
}
