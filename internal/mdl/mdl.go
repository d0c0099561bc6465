// Package mdl implements the Minimum Description Length cut used by MrCC
// to turn the array of per-axis relevances into a binary
// relevant/irrelevant decision without a user-supplied threshold.
//
// Given the relevances sorted in ascending order o[0..d-1], MrCC picks
// the cut position p (1 <= p <= d-1, or no cut) that minimizes the total
// number of bits needed to describe the array when each partition
// [o[0..p-1]] and [o[p..d-1]] is encoded by its mean plus per-element
// residuals — i.e. the cut that maximizes the homogeneity of the two
// partitions, as the paper states. The threshold is then o[p]: axes whose
// relevance is >= o[p] are relevant.
package mdl

import "math"

// Cut returns the index p (0 <= p <= len(sorted)-1) of the best MDL cut
// of the ascending-sorted slice, along with the code length at that cut.
// The threshold is sorted[p]: values >= it form the upper (relevant)
// partition. p = 0 corresponds to the paper's cut position 1 — an empty
// lower partition, meaning the array is homogeneous and every axis is
// relevant. For an empty slice it returns (0, 0).
func Cut(sorted []float64) (p int, bits float64) {
	d := len(sorted)
	if d == 0 {
		return 0, 0
	}
	bestP := 0
	bestBits := math.Inf(1)
	// O(d^2) over at most ~30 axes: each candidate cut re-scans both
	// partitions for means and residual costs.
	for cut := 0; cut < d; cut++ {
		c := encodeCost(sorted[:cut]) + encodeCost(sorted[cut:])
		if c < bestBits {
			bestBits = c
			bestP = cut
		}
	}
	return bestP, bestBits
}

// Threshold is a convenience wrapper: it returns the relevance threshold
// value o[p] for the best cut of the ascending-sorted slice.
func Threshold(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	p, _ := Cut(sorted)
	return sorted[p]
}

// meanBits is the fixed cost of describing one partition's mean: a value
// in the relevance range (0, 100] at unit precision, log2(101) bits.
// A fixed cost (rather than a value-dependent one) keeps the comparison
// between cut positions symmetric: splitting always pays exactly one
// extra mean, and wins only when the residual savings exceed it.
var meanBits = math.Log2(101)

// encodeCost returns the number of bits to describe the partition by its
// mean plus per-element residuals: meanBits + sum log2(|x-mean|+1).
func encodeCost(part []float64) float64 {
	if len(part) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range part {
		mean += v
	}
	mean /= float64(len(part))
	bits := meanBits
	for _, v := range part {
		bits += math.Log2(math.Abs(v-mean) + 1)
	}
	return bits
}
