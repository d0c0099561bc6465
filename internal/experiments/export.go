package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV exports measurements as CSV, one row per (dataset, method),
// for spreadsheet-side plotting of the regenerated figures.
func WriteCSV(w io.Writer, ms []Measurement) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"dataset", "method", "quality", "subspaces_quality",
		"clusters", "memory_kb", "seconds", "note",
	}); err != nil {
		return fmt.Errorf("experiments: writing CSV header: %w", err)
	}
	for _, m := range ms {
		rec := []string{
			m.Dataset, m.Method,
			strconv.FormatFloat(m.Quality, 'f', 4, 64),
			strconv.FormatFloat(m.SubspacesQuality, 'f', 4, 64),
			strconv.Itoa(m.Clusters),
			strconv.FormatUint(m.MemoryKB, 10),
			strconv.FormatFloat(m.Seconds, 'f', 4, 64),
			m.Note,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("experiments: writing CSV: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseTable parses rows previously produced by FormatTable — the
// harness writes plain-text tables to result files, and this reads them
// back for post-processing (summary statistics, EXPERIMENTS.md).
func ParseTable(text string) []Measurement {
	var out []Measurement
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 7 || fields[0] == "dataset" || strings.HasPrefix(fields[0], "=") ||
			strings.HasPrefix(fields[0], "(") {
			continue
		}
		q, err1 := strconv.ParseFloat(fields[2], 64)
		sq, err2 := strconv.ParseFloat(fields[3], 64)
		cl, err3 := strconv.Atoi(fields[4])
		mem, err4 := strconv.ParseUint(fields[5], 10, 64)
		sec, err5 := strconv.ParseFloat(fields[6], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			continue
		}
		m := Measurement{
			Dataset: fields[0], Method: fields[1],
			Quality: q, SubspacesQuality: sq, Clusters: cl,
			MemoryKB: mem, Seconds: sec,
		}
		if len(fields) > 7 {
			m.Note = strings.Join(fields[7:], " ")
		}
		out = append(out, m)
	}
	return out
}
