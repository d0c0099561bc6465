package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"mrcc/internal/synthetic"
)

func TestMeasureRunReportsTimeAndError(t *testing.T) {
	sentinel := errors.New("boom")
	seconds, _, err := measureRun(func() error {
		time.Sleep(20 * time.Millisecond)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("error not propagated: %v", err)
	}
	if seconds < 0.015 {
		t.Errorf("measured %.4fs for a 20ms run", seconds)
	}
}

func TestMeasureRunSeesAllocations(t *testing.T) {
	var sink []byte
	_, peakKB, err := measureRun(func() error {
		sink = make([]byte, 32<<20)
		for i := range sink {
			sink[i] = byte(i)
		}
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sink
	if peakKB < 16<<10 {
		t.Errorf("peak %d KB missed a 32 MB allocation", peakKB)
	}
}

func TestSubsample(t *testing.T) {
	ds, gt, err := synthetic.Generate(synthetic.Config{
		Dims: 5, Points: 1000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 3, MaxClusterDim: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	small, smallGT, capped := subsample(ds, gt, 100)
	if !capped || small.Len() != 100 || len(smallGT.Labels) != 100 {
		t.Fatalf("capped=%v len=%d labels=%d", capped, small.Len(), len(smallGT.Labels))
	}
	same, _, capped2 := subsample(ds, gt, 5000)
	if capped2 || same.Len() != 1000 {
		t.Errorf("no-op subsample misbehaved: capped=%v len=%d", capped2, same.Len())
	}
}

func TestMethodsRegistryAndFilter(t *testing.T) {
	all := Methods(Options{})
	if len(all) != 6 {
		t.Fatalf("default registry has %d methods, want the paper's 6", len(all))
	}
	only := Methods(Options{Methods: []string{"MrCC", "LAC"}})
	if len(only) != 2 {
		t.Fatalf("filter kept %d methods, want 2", len(only))
	}
	withBonus := Methods(Options{Methods: AllMethodNames()})
	if want := len(MethodNames()) + len(BonusMethodNames()); len(withBonus) != want {
		t.Fatalf("explicit list kept %d methods, want %d (incl. bonus baselines)", len(withBonus), want)
	}
}

func TestRunFigureUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFigure("fig9", &buf, Options{}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFigureIDsAllRunnable(t *testing.T) {
	// Every listed figure must dispatch (we only smoke-run the two
	// cheapest end-to-end; the others are exercised by the benches).
	ids := FigureIDs()
	if len(ids) < 12 {
		t.Fatalf("only %d figures registered", len(ids))
	}
}

func TestCompareMethodsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison smoke test skipped in -short mode")
	}
	ds, gt, err := synthetic.Generate(synthetic.Config{
		Dims: 6, Points: 2000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 4, MaxClusterDim: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := CompareMethods("smoke", ds, gt, Options{Scale: 1, HarpCap: 500})
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if strings.HasPrefix(r.Note, "error") {
			t.Errorf("%s failed: %s", r.Method, r.Note)
		}
		if r.Method == "MrCC" && r.Quality < 0.8 {
			t.Errorf("MrCC quality %.3f on an easy dataset", r.Quality)
		}
	}
	table := FormatTable(rows)
	for _, name := range MethodNames() {
		if !strings.Contains(table, name) {
			t.Errorf("table missing method %s", name)
		}
	}
}

func TestRunFigureAblationMaskSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation smoke test skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := RunFigure("ablation-mask", &buf, Options{Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "face-only") || !strings.Contains(out, "full-3^d") {
		t.Errorf("ablation output missing modes:\n%s", out)
	}
}
