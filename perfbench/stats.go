package main

import (
	"math"
	"sort"
)

// Every percentile in this benchmark is nearest-rank: the p-th percentile
// of n sorted samples is the sample at 1-based rank ⌈p/100·n⌉. It always
// returns a value that was actually measured, never an interpolation, and
// the median is the p = 50 case of the same rule.

// percentile returns the nearest-rank p-th percentile of xs (0 when xs is
// empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio divides without producing NaN: 0/0 is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// samples is a named collection of one kind of measurement.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }
