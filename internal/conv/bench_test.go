package conv

import (
	"testing"

	"mrcc/internal/ctree"
)

// BenchmarkFaceValue measures the O(d) face-only mask application over
// an entire tree level — the paper's key cost argument vs the full
// O(3^d) mask.
func BenchmarkFaceValue(b *testing.B) {
	tr, _ := buildTree(b, 10, 20000, 1, 4)
	ix := tr.EnsureLevelIndexes()[1]
	buf := make(ctree.Path, 0, ix.Level)
	var path ctree.Path
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i % ix.Len()
		path = ix.PathInto(path, e)
		FaceValueScratch(ix, path, e, buf)
	}
}

// BenchmarkFullValue measures the full mask at a dimensionality where
// it is still tractable, for the A-mask ablation comparison.
func BenchmarkFullValue(b *testing.B) {
	tr, _ := buildTree(b, 6, 5000, 1, 4)
	ix := tr.EnsureLevelIndexes()[1]
	var path ctree.Path
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i % ix.Len()
		path = ix.PathInto(path, e)
		FullValue(ix, path, e)
	}
}
