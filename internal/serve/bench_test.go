package serve

import (
	"testing"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/synthetic"
)

// BenchmarkWindowPass times one re-cluster pass of a settled stream
// window through the service's own steps: snapshotTrees (the active
// clone), mergedTree (the window merge), EnsureLevelIndexes and
// core.RunTree. The window is a 100k-point aging tree and a 50k-point
// active tree at d = 15, H = 4, both grown from 1000-point ingests, and
// one untimed pass runs first, so the timed ones see the steady state a
// stream settles into. It reports each step's mean per pass as
// snapshot-ms, merge-ms, index-ms and runtree-ms.
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
	s, err := New(Config{Dims: d, ReclusterEvery: time.Hour, WindowPoints: window, Workers: 1})
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
	ingest(ds.Points[:window])
	// A pass with the active tree full: a service that rotates at pass
	// time retires it here, one that rotates at ingest on the next batch.
	s.snapshotTrees()
	ingest(ds.Points[window:])
	cfg := core.Config{Alpha: s.cfg.Alpha, H: s.cfg.H, Workers: s.cfg.Workers, MaxBetaClusters: s.cfg.MaxBetaClusters}
	var spent [4]time.Duration // snapshot, merge, index, RunTree
	pass := func() {
		t0 := time.Now()
		active, aging, _ := s.snapshotTrees()
		t1 := time.Now()
		merged, err := mergedTree(active, aging)
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		merged.EnsureLevelIndexes()
		t3 := time.Now()
		if _, err := core.RunTree(merged, cfg); err != nil {
			b.Fatal(err)
		}
		t4 := time.Now()
		for i, dt := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)} {
			spent[i] += dt
		}
	}
	pass()
	if s.aging == nil || s.aging.Eta != window || s.active.Eta != window/2 {
		b.Fatal("the window did not settle into a 100k aging and a 50k active tree")
	}
	spent = [4]time.Duration{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	for i, unit := range []string{"snapshot-ms", "merge-ms", "index-ms", "runtree-ms"} {
		b.ReportMetric(float64(spent[i].Microseconds())/1e3/float64(b.N), unit)
	}
}
