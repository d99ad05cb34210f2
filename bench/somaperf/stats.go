package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. NaN for an empty sample, so a
// metric that collected nothing can never pass for a measurement.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func flatten(slices [][]float64) []float64 {
	var all []float64
	for _, s := range slices {
		all = append(all, s...)
	}
	return all
}

// iqrShare is the inter-quartile range of xs as a share of its median —
// the spread statistic the benchmark contract judges repeatability by
// (quartiles as Python's statistics.quantiles(n=4) gives them: the
// exclusive method).
func iqrShare(xs []float64) float64 {
	q1, q3 := quartilesExclusive(xs)
	return (q3 - q1) / median(xs)
}

func quartilesExclusive(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
