package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{seq(40), 20.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileLeavesTenBeyondP75Of40(t *testing.T) {
	xs := seq(40)
	if got := percentile(xs, 0.75); got != 30 {
		t.Fatalf("p75 of 1..40 = %v, want 30 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 1); got != 40 {
		t.Errorf("p100 = %v, want 40", got)
	}
	if got := percentile([]float64{5}, 0.75); got != 5 {
		t.Errorf("p75 of one sample = %v, want 5", got)
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{seq(10), (8.25 - 2.75) / 5.5},
		{[]float64{1, 2, 3}, (3.0 - 1.0) / 2},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{1.0, 1.02, 0.99, 1.01, 1.0, 1.03, 0.98, 1.0, 1.01, 0.99}, (1.0125 - 0.99) / 1.0},
		{[]float64{4}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
