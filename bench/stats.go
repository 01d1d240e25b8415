package main

import (
	"math"
	"sort"
)

// quantile returns the order statistic at rank floor(q*(n-1)) of xs: the
// 4th smallest of 36 for q = 0.1, the lower median for q = 0.5. An order
// statistic rather than an interpolation, so the value is one a round
// really took. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minOf(xs []float64) float64 { return quantile(xs, 0) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0: a layer that saw no traffic reports a
// ratio of 0, never NaN, so every emitted metric stays finite.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}
