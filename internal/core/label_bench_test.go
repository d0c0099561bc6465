package core

import (
	"context"
	"testing"

	"mrcc/internal/synthetic"
)

// BenchmarkLabelPoints times the labeling phase alone (labelPoints, one
// worker) over 100k points of the catalogue's 250k-point, 14-d
// configuration, with the β-clusters and clusters a default run finds
// there, and reports points/s (η ÷ seconds per labeling), the metric
// scripts/bench_floors.sh floors. The file uses only what the package
// has had since labeling took its (dataset, β, clusters) arguments, so
// it also runs on older trees for an A/B.
//
//	go test -run '^$' -bench BenchmarkLabelPoints ./internal/core
func BenchmarkLabelPoints(b *testing.B) {
	cfg, err := synthetic.CatalogueConfig("250k")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Points = 100000
	ds, _, err := synthetic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// One backing array in row order, as the CSV reader lays rows out:
	// the generator's shuffled rows would time cache misses instead.
	ds = ds.Clone()
	res, err := Run(context.Background(), Input{Dataset: ds}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Betas) < 8 {
		b.Fatalf("only %d β-clusters found, want >= 8", len(res.Betas))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := labelPoints(ds, res.Betas, res.Clusters, 1, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.Len())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
