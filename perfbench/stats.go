package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of values by linear
// interpolation between closest ranks (the "inclusive" method Python's
// statistics.quantiles(method="inclusive") and R's type 7 use), plus the
// sample count it rests on. It returns (NaN, 0) for an empty sample.
func quantile(values []float64, q float64) (float64, int) {
	n := len(values)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	return v, n
}

// median is quantile(values, 0.5) without the count.
func median(values []float64) float64 {
	v, _ := quantile(values, 0.5)
	return v
}

// supported reports whether the q-quantile of an n-sample has at least
// ten samples beyond it, the least tail that makes a percentile more than
// the sample maximum.
func supported(q float64, n int) bool {
	return float64(n)*(1-q) >= 10
}

// summary renders a timing as median, quartiles and sample count.
func summary(values []float64) string {
	q1, n := quantile(values, 0.25)
	q3, _ := quantile(values, 0.75)
	return fmt.Sprintf("median %.6g [q1 %.6g, q3 %.6g] n=%d", median(values), q1, q3, n)
}
