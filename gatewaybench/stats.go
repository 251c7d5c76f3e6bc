package main

import (
	"math"
	"slices"
)

// quantile is the nearest-rank p-quantile of xs (0 when empty). xs is
// sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// beyond counts the samples strictly above the p-quantile: a tail
// percentile is supported when at least ten samples lie beyond it.
func beyond(xs []float64, p float64) int {
	q := quantile(xs, p)
	i, _ := slices.BinarySearch(xs, q)
	for i < len(xs) && xs[i] <= q {
		i++
	}
	return len(xs) - i
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
