// Package baselines defines the common result shape shared by the
// competitor methods the paper evaluates against (Section IV): LAC,
// EPCH, P3C, CFPC and HARP, plus PROCLUS from related work. Each method
// lives in its own subpackage and returns a Result.
//
// These are full from-scratch implementations of the published
// algorithms (the originals were provided privately to the paper's
// authors); see DESIGN.md for the fidelity notes of each.
package baselines

// Noise labels points assigned to no cluster.
const Noise = -1

// Result is a clustering produced by a baseline method.
type Result struct {
	// Labels assigns each point its cluster (0-based) or Noise.
	Labels []int
	// Relevant[k][j] reports whether axis j is relevant to cluster k.
	// Nil when the method does not report subspaces (LAC reports
	// Weights instead).
	Relevant [][]bool
	// Weights[k][j] is the per-axis weight of cluster k for methods,
	// like LAC, that soft-weight axes instead of selecting them.
	Weights [][]float64
}
