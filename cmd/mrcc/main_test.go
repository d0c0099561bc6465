package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrcc"
)

func writeTestCSV(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	ds := mrcc.NewDataset(5, 0)
	for i := 0; i < 800; i++ {
		ds.Append([]float64{
			0.2 + 0.02*rng.NormFloat64(),
			0.3 + 0.02*rng.NormFloat64(),
			0.2 + 0.02*rng.NormFloat64(),
			rng.Float64(), rng.Float64(),
		})
	}
	for i := 0; i < 200; i++ {
		ds.Append([]float64{
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
		})
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := ds.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// cli runs realMainCtx with the given arguments under a background
// context and returns (exit code, stdout, stderr).
func cli(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMainCtx(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunTextAndLabels(t *testing.T) {
	in := writeTestCSV(t)
	out := filepath.Join(filepath.Dir(in), "labels.csv")
	code, stdout, stderr := cli(t, "-in", in, "-out", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "correlation clusters") {
		t.Errorf("text summary missing from stdout:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1000 {
		t.Fatalf("wrote %d labels, want 1000", len(lines))
	}
}

func TestRunJSON(t *testing.T) {
	in := writeTestCSV(t)
	code, stdout, stderr := cli(t, "-in", in, "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var outp jsonOutput
	if err := json.Unmarshal([]byte(stdout), &outp); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if outp.Points != 1000 || outp.Dims != 5 {
		t.Errorf("points=%d dims=%d, want 1000 x 5", outp.Points, outp.Dims)
	}
	if outp.Stats != nil {
		t.Error("stats block present without -stats")
	}
}

// TestRunStatsJSON pins the ISSUE 2 acceptance criterion: `mrcc -in
// <csv> -stats -json` emits per-phase wall times, counters and memory
// deltas in the stats block.
func TestRunStatsJSON(t *testing.T) {
	in := writeTestCSV(t)
	code, stdout, stderr := cli(t, "-in", in, "-stats", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var outp jsonOutput
	if err := json.Unmarshal([]byte(stdout), &outp); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	st := outp.Stats
	if st == nil {
		t.Fatal("-stats -json produced no stats block")
	}
	if st.Points != 1000 || st.Dims != 5 {
		t.Errorf("stats shape %dx%d, want 1000x5", st.Points, st.Dims)
	}
	if st.TreeBuild.WallNS <= 0 {
		t.Error("tree-build wall time missing")
	}
	if st.LevelIndex.WallNS <= 0 {
		t.Error("level-index wall time missing")
	}
	if st.BetaSearch.WallNS <= 0 {
		t.Error("β-search wall time missing")
	}
	if st.Counters.MaskEvals <= 0 {
		t.Error("mask-evaluation counter missing")
	}
	// LabeledPoints counts cluster members, NoisePoints the rest; every
	// input point is exactly one of the two.
	if got := st.Counters.LabeledPoints + st.Counters.NoisePoints; got != 1000 {
		t.Errorf("labeled + noise = %d, want 1000 (labeled=%d noise=%d)",
			got, st.Counters.LabeledPoints, st.Counters.NoisePoints)
	}
	if st.Counters.NoisePoints != int64(outp.Noise) {
		t.Errorf("stats noise = %d, JSON summary noise = %d", st.Counters.NoisePoints, outp.Noise)
	}
}

// TestRunStatsText pins the human-readable stats table on -stats
// without -json, and that -stats does not change the cluster summary.
func TestRunStatsText(t *testing.T) {
	in := writeTestCSV(t)
	code, plain, stderr := cli(t, "-in", in)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	code, withStats, stderr := cli(t, "-in", in, "-stats")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(withStats, "phase") || !strings.Contains(withStats, "levelIndex") {
		t.Errorf("-stats output has no phase table with a levelIndex row:\n%s", withStats)
	}
	// The cluster summary (first lines) must be unaffected by stats
	// collection, modulo the elapsed-time figure.
	summaryLine := func(s string) string {
		for _, l := range strings.Split(s, "\n") {
			if strings.Contains(l, "dataset:") {
				return l
			}
		}
		return ""
	}
	if a, b := summaryLine(plain), summaryLine(withStats); a != b {
		t.Errorf("dataset summary changed under -stats: %q vs %q", a, b)
	}
}

func TestRunProfiles(t *testing.T) {
	in := writeTestCSV(t)
	dir := filepath.Dir(in)
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, stderr := cli(t, "-in", in, "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s not written: %v", p, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestRunWorkersMatchSerial pins the CLI's -workers plumbing: the label
// files written by a serial and a 4-worker run must be identical.
func TestRunWorkersMatchSerial(t *testing.T) {
	in := writeTestCSV(t)
	dir := filepath.Dir(in)
	serial := filepath.Join(dir, "serial.csv")
	parallel := filepath.Join(dir, "parallel.csv")
	if code, _, stderr := cli(t, "-in", in, "-workers", "1", "-out", serial); code != 0 {
		t.Fatalf("serial run exit %d, stderr: %s", code, stderr)
	}
	if code, _, stderr := cli(t, "-in", in, "-workers", "4", "-stats", "-out", parallel); code != 0 {
		t.Fatalf("parallel run exit %d, stderr: %s", code, stderr)
	}
	a, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("label files differ between -workers 1 and -workers 4 -stats")
	}
}

// TestFlagValidation pins the up-front validation: every impossible
// flag combination must exit with status 2 and print the usage text,
// before any input is read.
func TestFlagValidation(t *testing.T) {
	in := writeTestCSV(t)
	cases := []struct {
		name string
		args []string
	}{
		{"missing -in", nil},
		{"alpha too large", []string{"-in", in, "-alpha", "2.0"}},
		{"alpha zero", []string{"-in", in, "-alpha", "0"}},
		{"alpha one", []string{"-in", in, "-alpha", "1"}},
		{"H too small", []string{"-in", in, "-H", "2"}},
		{"negative workers", []string{"-in", in, "-workers", "-2"}},
		{"unknown flag", []string{"-in", in, "-bogus"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := cli(t, c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "-in") {
				t.Errorf("usage text missing from stderr:\n%s", stderr)
			}
		})
	}
	// Validation failures must not exit 1: status 1 is reserved for
	// runtime errors like an unreadable input file.
	if code, _, _ := cli(t, "-in", "/nonexistent/file.csv"); code != 1 {
		t.Errorf("runtime error exited %d, want 1", code)
	}
}
