package conv

import "testing"

// BenchmarkFaceValue measures the O(d) face-only mask application over
// an entire tree level — the paper's key cost argument vs the full
// O(3^d) mask.
func BenchmarkFaceValue(b *testing.B) {
	tr, _ := buildTree(b, 10, 20000, 1, 4)
	ix := tr.LevelIndex(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i % ix.Len()
		FaceValue(ix, ix.PathOf(e), e)
	}
}

// BenchmarkFullValue measures the full mask at a dimensionality where
// it is still tractable, for the A-mask ablation comparison.
func BenchmarkFullValue(b *testing.B) {
	tr, _ := buildTree(b, 6, 5000, 1, 4)
	ix := tr.LevelIndex(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i % ix.Len()
		FullValue(ix, ix.PathOf(e), e)
	}
}
