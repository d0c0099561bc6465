package dataset_test

import (
	"bytes"
	"testing"

	"mrcc/internal/dataset"
	"mrcc/internal/synthetic"
)

var dsSink *dataset.Dataset

// BenchmarkReadCSV parses the synthetic generator's 50k-point, 14-d
// catalogue dataset from memory, as written by WriteCSV.
func BenchmarkReadCSV(b *testing.B) {
	cfg, err := synthetic.CatalogueConfig("50k")
	if err != nil {
		b.Fatal(err)
	}
	gen, _, err := synthetic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := dataset.ReadCSV(bytes.NewReader(data), false)
		if err != nil {
			b.Fatal(err)
		}
		if ds.Len() != gen.Len() || ds.Dims != gen.Dims {
			b.Fatalf("read %d x %d, want %d x %d", ds.Len(), ds.Dims, gen.Len(), gen.Dims)
		}
		dsSink = ds
	}
}
