package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilCollectorIsNoOp pins the disabled-stats contract: every method
// of a nil collector must be safe and side-effect free, because the
// pipeline calls them unconditionally.
func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	sp := c.Start(PhaseTreeBuild)
	sp.End()
	c.Start(PhaseConvScan).EndAtLevel(2)
	c.SetShape(1, 2, 3, 4)
	c.SetTreeBytes(9, 8)
	c.SetBuildCounters(BuildCounters{BatchRuns: 1})
	c.CountCells(2, 7)
	c.AddScanPass()
	c.AddBetaTest(true)
	c.AddCritCache(false)
	c.SetClusterCounts(1, 1, 0)
	c.AddMaskEvals(5)
	c.AddLabeled(3, 1)
	if s := c.Finish(); s != nil {
		t.Errorf("nil Finish = %+v, want nil", s)
	}
}

func TestSpanAccumulates(t *testing.T) {
	c := New()
	sp := c.Start(PhaseTreeBuild)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	sp = c.Start(PhaseTreeBuild)
	sp.End()
	s := c.Finish()
	if s.TreeBuild.Spans != 2 {
		t.Errorf("spans = %d, want 2", s.TreeBuild.Spans)
	}
	if s.TreeBuild.Wall() < 2*time.Millisecond {
		t.Errorf("wall = %v, want >= 2ms", s.TreeBuild.Wall())
	}
}

func TestScanLevelAttribution(t *testing.T) {
	c := New()
	c.Start(PhaseConvScan).EndAtLevel(2)
	c.Start(PhaseConvScan).EndAtLevel(3)
	c.Start(PhaseConvScan).EndAtLevel(3)
	s := c.Finish()
	if s.ConvScan.Spans != 3 {
		t.Errorf("scan spans = %d, want 3", s.ConvScan.Spans)
	}
	if len(s.ScanWallNSPerLevel) != 4 {
		t.Fatalf("per-level slice length = %d, want 4", len(s.ScanWallNSPerLevel))
	}
	// The interleaved scan phase must not carry memory deltas (it skips
	// the MemStats snapshots by design).
	if s.ConvScan.AllocBytes != 0 || s.ConvScan.GCCycles != 0 {
		t.Errorf("scan phase carries memory deltas: %+v", s.ConvScan)
	}
}

func TestCountersAndFinishCopy(t *testing.T) {
	c := New()
	c.SetShape(100, 5, 4, 2)
	c.SetTreeBytes(2048, 1024)
	c.CountCells(1, 10)
	c.CountCells(3, 40)
	c.AddScanPass()
	c.AddBetaTest(true)
	c.AddBetaTest(false)
	c.AddCritCache(true)
	c.AddCritCache(true)
	c.AddCritCache(false)
	c.SetClusterCounts(3, 2, 1)
	c.AddMaskEvals(50)
	c.AddLabeled(90, 10)
	s := c.Finish()
	cn := s.Counters
	if cn.MaskEvals != 50 || cn.BetaTests != 2 || cn.BetaAccepted != 1 ||
		cn.BetaRejected != 1 || cn.CritCacheHits != 2 || cn.CritCacheMisses != 1 ||
		cn.ScanPasses != 1 {
		t.Errorf("counters = %+v", cn)
	}
	if cn.LabeledPoints != 90 || cn.NoisePoints != 10 {
		t.Errorf("labeled/noise = %d/%d, want 90/10", cn.LabeledPoints, cn.NoisePoints)
	}
	if got := cn.CellsPerLevel; len(got) != 4 || got[1] != 10 || got[3] != 40 {
		t.Errorf("cellsPerLevel = %v", got)
	}
	if cn.BetaClusters-cn.MergedBetas != cn.Clusters {
		t.Errorf("betas(%d) - merges(%d) != clusters(%d)",
			cn.BetaClusters, cn.MergedBetas, cn.Clusters)
	}
	// Finish returns a deep copy: later mutation must not leak in.
	c.CountCells(3, 999)
	if s.Counters.CellsPerLevel[3] != 40 {
		t.Error("Finish did not deep-copy CellsPerLevel")
	}
}

// TestConcurrentWorkers exercises the worker-facing surface (chunk
// merges) from many goroutines; run under -race this is the safety
// proof for Config.Workers > 1 with stats on.
func TestConcurrentWorkers(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.AddMaskEvals(3)
				c.AddLabeled(10, 2)
			}
		}()
	}
	wg.Wait()
	s := c.Finish()
	if s.Counters.MaskEvals != 8*100*3 {
		t.Errorf("maskEvals = %d, want %d", s.Counters.MaskEvals, 8*100*3)
	}
	if s.Counters.LabeledPoints != 8*100*10 || s.Counters.NoisePoints != 8*100*2 {
		t.Errorf("labeled/noise = %d/%d", s.Counters.LabeledPoints, s.Counters.NoisePoints)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	c := New()
	c.SetShape(1000, 8, 4, 1)
	c.Start(PhaseTreeBuild).End()
	c.Start(PhaseLevelIndex).End()
	c.AddMaskEvals(123)
	s := c.Finish()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Points != 1000 || back.Counters.MaskEvals != 123 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.LevelIndex.Spans != 1 {
		t.Errorf("round trip lost the levelIndex row: %+v", back.LevelIndex)
	}
	for _, key := range []string{"treeBuild", "levelIndex", "maskEvals", "counters"} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON missing key %q: %s", key, data)
		}
	}
}

func TestFormat(t *testing.T) {
	c := New()
	c.SetShape(1000, 8, 4, 2)
	c.CountCells(1, 5)
	c.CountCells(2, 9)
	c.Start(PhaseTreeBuild).End()
	c.Start(PhaseLevelIndex).End()
	c.Start(PhaseConvScan).EndAtLevel(2)
	c.AddMaskEvals(42)
	s := c.Finish()
	out := s.Format()
	for _, want := range []string{"treeBuild", "levelIndex", "convScan", "mask evals: 42", "1000 points", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	// The level-index row sits between the tree build and the β-search,
	// the order the pipeline runs them in, and counts in the total.
	if strings.Index(out, "treeBuild") > strings.Index(out, "levelIndex") {
		t.Errorf("Format() prints levelIndex before treeBuild:\n%s", out)
	}
	if s.TotalWall() != s.TreeBuild.Wall()+s.LevelIndex.Wall() {
		t.Errorf("TotalWall %v, want treeBuild %v + levelIndex %v", s.TotalWall(), s.TreeBuild.Wall(), s.LevelIndex.Wall())
	}
}

func TestPhaseString(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		name := p.String()
		if name == "" || strings.HasPrefix(name, "phase(") {
			t.Errorf("phase %d has no name", p)
		}
		if seen[name] {
			t.Errorf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
	if got := Phase(200).String(); got != "phase(200)" {
		t.Errorf("out-of-range phase String = %q", got)
	}
}

func TestMeasure(t *testing.T) {
	st := Measure(func() {
		time.Sleep(time.Millisecond)
		_ = make([]byte, 1<<20)
	})
	if st.Wall() < time.Millisecond {
		t.Errorf("wall = %v, want >= 1ms", st.Wall())
	}
	if st.AllocBytes < 1<<20 {
		t.Errorf("allocBytes = %d, want >= 1MB", st.AllocBytes)
	}
	if st.Spans != 1 {
		t.Errorf("spans = %d, want 1", st.Spans)
	}
}
