package stats

import (
	"fmt"
	"testing"
)

func BenchmarkBinomCriticalValue(b *testing.B) {
	for _, n := range []int{100, 10000, 1000000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BinomCriticalValue(n, 1.0/6.0, 1e-10)
			}
		})
	}
}

func BenchmarkLogBinomSF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		LogBinomSF(10000, 3000, 1.0/6.0)
	}
}

func BenchmarkPoissonSF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PoissonSF(120, 40.0)
	}
}
