package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
