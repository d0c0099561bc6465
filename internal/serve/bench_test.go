package serve

import (
	"context"
	"testing"
	"time"

	"mrcc/internal/synthetic"
)

// BenchmarkWindowPass times the service's own re-cluster pass,
// s.recluster — snapshot, β-search over the window, publish — on a
// settled 150k-point stream at d = 15, H = 4, grown from 1000-point
// ingests, after one untimed pass, and reports its mean as pass-ms.
// Each iteration also times one snapshotTrees call (the active clone)
// on its own, outside pass-ms, as snapshot-ms. "rotated" is a
// 100k-point aging tree and a 50k-point active tree (WindowPoints
// 100000); "unwindowed" is one 150k-point first-touch active tree
// (WindowPoints 0). The file uses only what the service has had since
// its window merge rewrite, so it also runs on older trees for an A/B.
//
//	go test -run '^$' -bench BenchmarkWindowPass ./internal/serve
func BenchmarkWindowPass(b *testing.B) {
	const d, window, batch = 15, 100000, 1000
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: d, Points: window + window/2, Clusters: 10, NoiseFrac: 0.15,
		MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name         string
		windowPoints int
	}{{"rotated", window}, {"unwindowed", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := New(Config{Dims: d, ReclusterEvery: time.Hour, WindowPoints: bc.windowPoints, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			ingest := func(pts [][]float64) {
				for i := 0; i < len(pts); i += batch {
					if _, err := s.ingest(pts[i:min(i+batch, len(pts))]); err != nil {
						b.Fatal(err)
					}
				}
			}
			ctx := context.Background()
			ingest(ds.Points[:window])
			// A pass with the active tree full: a service that rotates at
			// pass time retires it here, one that rotates at ingest on the
			// next batch.
			if err := s.recluster(ctx); err != nil {
				b.Fatal(err)
			}
			ingest(ds.Points[window:])
			if err := s.recluster(ctx); err != nil {
				b.Fatal(err)
			}
			if bc.windowPoints > 0 && (s.aging == nil || s.aging.Eta != window || s.active.Eta != window/2) {
				b.Fatal("the window did not settle into a 100k aging and a 50k active tree")
			}
			if bc.windowPoints == 0 && (s.aging != nil || s.active.Eta != ds.Len()) {
				b.Fatal("the unwindowed service does not hold every point in its active tree")
			}
			var snapshot, pass time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				s.snapshotTrees()
				t1 := time.Now()
				if err := s.recluster(ctx); err != nil {
					b.Fatal(err)
				}
				snapshot, pass = snapshot+t1.Sub(t0), pass+time.Since(t1)
			}
			b.ReportMetric(float64(snapshot.Microseconds())/1e3/float64(b.N), "snapshot-ms")
			b.ReportMetric(float64(pass.Microseconds())/1e3/float64(b.N), "pass-ms")
		})
	}
}
