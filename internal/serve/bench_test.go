package serve

import (
	"context"
	"slices"
	"testing"
	"time"

	"mrcc/internal/synthetic"
)

// BenchmarkWindowPass times the service's own re-cluster pass,
// s.recluster — snapshot, β-search over the window, publish — on a
// settled 150k-point stream at d = 15, H = 4, grown from 1000-point
// ingests, after one untimed pass, and reports its mean as pass-ms.
// Each iteration also times one snapshotTrees call (the copy of the
// run list) on its own, outside pass-ms, as snapshot-ms. "rotated" is a
// 100k-point aging tree and 50k points of active runs (WindowPoints
// 100000); "unwindowed" is 150k points of active runs (WindowPoints 0).
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
			if bc.windowPoints > 0 && (len(s.aging) != 1 || s.aging.Points() != window || s.active.Points() != window/2) {
				b.Fatal("the window did not settle into a 100k aging tree and 50k points of active runs")
			}
			if bc.windowPoints == 0 && (s.aging != nil || s.active.Points() != ds.Len()) {
				b.Fatal("the unwindowed service does not hold every point in its active runs")
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

// BenchmarkIngest times the service's fold step, s.apply — add the
// batch to the active runs (ctree.Runs.Add), rotate a full window — on
// the stream-grow shape: 150 batches of 1000 points at d = 15, H = 4,
// with WindowPoints 100000, so the window rotates once. Each call holds
// ingestMu, as an ingest does. It reports the points folded per second
// as points/s, the median and 99th percentile of the per-batch times
// as p50-ms and p99-ms, and what the folds allocate as B/op.
//
//	go test -run '^$' -bench BenchmarkIngest -cpu 1 ./internal/serve
func BenchmarkIngest(b *testing.B) {
	const d, window, batch, batches = 15, 100000, 1000, 150
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: d, Points: batch * batches, Clusters: 10, NoiseFrac: 0.15,
		MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
	})
	if err != nil {
		b.Fatal(err)
	}
	var times []time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(Config{Dims: d, ReclusterEvery: time.Hour, WindowPoints: window})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for lo := 0; lo < ds.Len(); lo += batch {
			t0 := time.Now()
			s.ingestMu.Lock()
			_, err := s.apply(ds.Points[lo:lo+batch], 0)
			s.ingestMu.Unlock()
			times = append(times, time.Since(t0))
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	slices.Sort(times)
	ms := func(q float64) float64 { return float64(times[int(q*float64(len(times)-1))].Microseconds()) / 1e3 }
	b.ReportMetric(float64(ds.Len())*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	b.ReportMetric(ms(0.5), "p50-ms")
	b.ReportMetric(ms(0.99), "p99-ms")
}
