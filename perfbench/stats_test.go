package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolatesAndCounts(t *testing.T) {
	values := []float64{40, 10, 30, 20} // unsorted on purpose
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.25, 17.5}, {0.5, 25}, {0.75, 32.5}, {1, 40},
	}
	for _, c := range cases {
		got, n := quantile(values, c.q)
		if got != c.want || n != 4 {
			t.Errorf("quantile(%v) = %v, n=%d; want %v, n=4", c.q, got, n, c.want)
		}
	}
	if values[0] != 40 {
		t.Errorf("quantile sorted its input in place: %v", values)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	if v, n := quantile(nil, 0.5); !math.IsNaN(v) || n != 0 {
		t.Errorf("quantile(nil) = %v, %d; want NaN, 0", v, n)
	}
	if v, n := quantile([]float64{7}, 0.99); v != 7 || n != 1 {
		t.Errorf("quantile([7], 0.99) = %v, %d; want 7, 1", v, n)
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		q    float64
		n    int
		want bool
	}{
		{0.99, 999, false}, {0.99, 1000, true}, {0.5, 19, false}, {0.5, 20, true},
	}
	for _, c := range cases {
		if got := supported(c.q, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
}
