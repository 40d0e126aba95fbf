package stat

import "math"

// NormalCDF returns P(X ≤ x) for X ~ N(mu, sigma²).
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		return math.NaN()
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// StudentTCDF returns P(T ≤ t) for Student's t with df degrees of freedom.
// The tail probability is computed through the regularized incomplete beta
// function, which is exact up to quadrature error for any df > 0.
func StudentTCDF(t float64, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b),
// evaluated with the Lentz continued-fraction expansion (Numerical Recipes
// style, implemented from the mathematical definition).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	// Use the symmetry relation to keep the continued fraction convergent.
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// using the modified Lentz algorithm.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		tiny    = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
