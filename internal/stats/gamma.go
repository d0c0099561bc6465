package stats

import (
	"fmt"
	"math"
)

// RegIncGammaLower returns P(a, x), the regularized lower incomplete
// gamma function, for a > 0, x >= 0. It uses the series expansion for
// x < a+1 and the continued fraction otherwise (cf. Numerical Recipes
// §6.2).
func RegIncGammaLower(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		panic(fmt.Sprintf("stats: invalid incomplete gamma args a=%g x=%g", a, x))
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaCF(a, x)
}

// RegIncGammaUpper returns Q(a, x) = 1 - P(a, x).
func RegIncGammaUpper(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		panic(fmt.Sprintf("stats: invalid incomplete gamma args a=%g x=%g", a, x))
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeries(a, x)
	}
	return gammaCF(a, x)
}

// gammaSeries evaluates P(a, x) by its power series.
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 1000; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a, x) by its continued fraction (modified Lentz).
func gammaCF(a, x float64) float64 {
	const fpmin = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= 1000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareSF returns the survival function P(X >= x) of a chi-square
// distribution with df degrees of freedom.
func ChiSquareSF(x float64, df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("stats: chi-square df must be >= 1, got %d", df))
	}
	if x <= 0 {
		return 1
	}
	return RegIncGammaUpper(float64(df)/2, x/2)
}

// PoissonSF returns P(X >= k) for X ~ Poisson(lambda), via the identity
// P(X >= k) = P(k, lambda) with the regularized lower incomplete gamma.
func PoissonSF(k int, lambda float64) float64 {
	if lambda < 0 {
		panic(fmt.Sprintf("stats: Poisson lambda must be >= 0, got %g", lambda))
	}
	if k <= 0 {
		return 1
	}
	if lambda == 0 {
		return 0
	}
	return RegIncGammaLower(float64(k), lambda)
}
