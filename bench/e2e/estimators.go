package main

import (
	"math"
	"sort"
)

// The estimators of the measurement protocol. Which one a metric uses is
// part of the metric's definition (see README.md): interference only ever
// adds time, so every gated timing takes the floor; counts are exact and
// take the ratio of totals; the median over epochs serves the per-layer
// latency summaries, which are diagnostics.

// floor is the mean of the fastest tenth of the series, at least three
// values (fewer only when the series is shorter than three).
func floor(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := len(s) / 10
	if k < 3 {
		k = 3
	}
	if k > len(s) {
		k = len(s)
	}
	return mean(s[:k])
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// totalRatio is Σnum / Σden: the estimator for per-op counts.
func totalRatio(num, den []float64) float64 {
	d := sum(den)
	if d == 0 {
		return math.NaN()
	}
	return sum(num) / d
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// quantile is the nearest-rank quantile of an unsorted series.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
