package core

import (
	"fmt"
	"math"

	"mrcc/internal/dataset"
)

// This file implements soft clustering on top of MrCC's hard result —
// the extension the paper's conclusion points toward (realized in the
// authors' follow-up system, Halite): instead of a crisp
// cluster-or-noise label, every point receives a posterior membership
// probability for each correlation cluster plus an explicit noise
// component.
//
// Each cluster is modeled as an axis-aligned Gaussian over its relevant
// axes (fitted on the points the hard pass labeled into it) and uniform
// over its irrelevant axes; noise is uniform over the whole cube. The
// posterior mixes these densities with priors proportional to the hard
// cluster sizes.

// minSoftSigma floors the fitted per-axis standard deviation so
// zero-variance clusters keep a finite density.
const minSoftSigma = 1e-3

// SoftMemberships returns an η×(γk+1) matrix of posterior membership
// probabilities: column k (k < γk) is the probability that point i
// belongs to cluster k; the last column is the noise probability. Rows
// sum to 1. The dataset must be the one the result was computed from.
func SoftMemberships(ds *dataset.Dataset, res *Result) ([][]float64, error) {
	if len(res.Labels) != ds.Len() {
		return nil, fmt.Errorf("core: result has %d labels for %d points", len(res.Labels), ds.Len())
	}
	k := len(res.Clusters)
	d := ds.Dims
	n := ds.Len()

	// Fit per-cluster, per-axis Gaussians on the hard members.
	mean := make([][]float64, k)
	sd := make([][]float64, k)
	sizes := make([]int, k)
	for c := 0; c < k; c++ {
		mean[c] = make([]float64, d)
		sd[c] = make([]float64, d)
	}
	for i, lb := range res.Labels {
		if lb == Noise {
			continue
		}
		sizes[lb]++
		for j, v := range ds.Points[i] {
			mean[lb][j] += v
		}
	}
	for c := 0; c < k; c++ {
		if sizes[c] == 0 {
			continue
		}
		for j := 0; j < d; j++ {
			mean[c][j] /= float64(sizes[c])
		}
	}
	for i, lb := range res.Labels {
		if lb == Noise {
			continue
		}
		for j, v := range ds.Points[i] {
			diff := v - mean[lb][j]
			sd[lb][j] += diff * diff
		}
	}
	noiseCount := 0
	for _, lb := range res.Labels {
		if lb == Noise {
			noiseCount++
		}
	}
	for c := 0; c < k; c++ {
		for j := 0; j < d; j++ {
			if sizes[c] > 1 {
				sd[c][j] = math.Sqrt(sd[c][j] / float64(sizes[c]-1))
			}
			if sd[c][j] < minSoftSigma {
				sd[c][j] = minSoftSigma
			}
		}
	}

	// Priors: hard sizes plus one smoothing count each; the noise
	// component always keeps a non-zero prior so no point is forced
	// into a cluster.
	priors := make([]float64, k+1)
	total := float64(n + k + 1)
	for c := 0; c < k; c++ {
		priors[c] = float64(sizes[c]+1) / total
	}
	priors[k] = float64(noiseCount+1) / total

	out := make([][]float64, n)
	logDens := make([]float64, k+1)
	for i, p := range ds.Points {
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				logDens[c] = math.Inf(-1)
				continue
			}
			ld := math.Log(priors[c])
			for j := 0; j < d; j++ {
				if !res.Clusters[c].Relevant[j] {
					continue // uniform over [0,1): log-density 0
				}
				z := (p[j] - mean[c][j]) / sd[c][j]
				ld += -0.5*z*z - math.Log(sd[c][j]) - 0.5*math.Log(2*math.Pi)
			}
			logDens[c] = ld
		}
		logDens[k] = math.Log(priors[k]) // uniform noise over the cube
		out[i] = softmax(logDens)
	}
	return out, nil
}

// softmax exponentiates and normalizes in a numerically stable way.
func softmax(logs []float64) []float64 {
	maxLog := math.Inf(-1)
	for _, l := range logs {
		if l > maxLog {
			maxLog = l
		}
	}
	out := make([]float64, len(logs))
	sum := 0.0
	for i, l := range logs {
		out[i] = math.Exp(l - maxLog)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
