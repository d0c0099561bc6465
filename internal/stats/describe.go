package stats

// HarmonicMean returns the harmonic mean of a and b, the combination the
// paper uses for Quality and Subspaces Quality. It returns 0 when either
// input is non-positive.
func HarmonicMean(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return 2 / (1/a + 1/b)
}
