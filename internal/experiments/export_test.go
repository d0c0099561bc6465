package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func sampleMeasurements() []Measurement {
	return []Measurement{
		{Dataset: "6d", Method: "MrCC", Quality: 0.999, SubspacesQuality: 1,
			Clusters: 2, MemoryKB: 777, Seconds: 0.003},
		{Dataset: "6d", Method: "HARP", Quality: 0.774, SubspacesQuality: 0.25,
			Clusters: 2, MemoryKB: 452, Seconds: 3.677, Note: "n capped at 1000 (quadratic method)"},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleMeasurements()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[1], "6d,MrCC,0.9990") {
		t.Errorf("unexpected first row: %q", lines[1])
	}
	if !strings.Contains(lines[2], "\"n capped at 1000 (quadratic method)\"") &&
		!strings.Contains(lines[2], "n capped at 1000 (quadratic method)") {
		t.Errorf("note lost: %q", lines[2])
	}
}

func TestParseTableRoundTrip(t *testing.T) {
	ms := sampleMeasurements()
	parsed := ParseTable(FormatTable(ms))
	if len(parsed) != len(ms) {
		t.Fatalf("parsed %d rows, want %d", len(parsed), len(ms))
	}
	for i := range ms {
		if parsed[i].Dataset != ms[i].Dataset || parsed[i].Method != ms[i].Method {
			t.Errorf("row %d identity mismatch: %+v", i, parsed[i])
		}
		if parsed[i].Clusters != ms[i].Clusters || parsed[i].MemoryKB != ms[i].MemoryKB {
			t.Errorf("row %d numbers mismatch: %+v", i, parsed[i])
		}
		if parsed[i].Note != ms[i].Note {
			t.Errorf("row %d note mismatch: %q vs %q", i, parsed[i].Note, ms[i].Note)
		}
	}
	// Garbage and separator lines are skipped.
	if got := ParseTable("== summary ==\n(fig in 3s)\nnot a row\n"); len(got) != 0 {
		t.Errorf("parsed %d rows from garbage", len(got))
	}
}
