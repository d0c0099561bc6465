package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks each run is correct and reports every metric of its set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{
				workload: name, seed: 3, seconds: 2, trace: trace, scale: 0.01,
				workdir: t.TempDir(), coldOp: batchOp,
			}
			out, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(out.checks) != 0 || out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, checks %v", name, trace, out.attempted, out.failed, out.checks)
			}
			path := filepath.Join(t.TempDir(), "out")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := report(f, o, out); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			f.Close()
			last := lastLine(t, path)
			var res struct {
				Correct bool
				Metrics map[string]metric
			}
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("%s trace=%v: result line %q: %v", name, trace, last, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !res.Correct || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: correct %v, %d metrics, want %d", name, trace, res.Correct, len(res.Metrics), len(want))
			}
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric sets the program
// reports in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", got, perLayer)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
}

func lastLine(t *testing.T, path string) string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	return last
}
