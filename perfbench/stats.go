package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank p-quantile of xs (0 when empty);
// xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentile is the highest of the 99th, 95th, 90th and 75th
// percentiles that has at least ten of n samples beyond it (the 75th
// when none has).
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.9} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.75
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// micros, millis and seconds convert a duration to float units.
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func seconds(d time.Duration) float64 { return d.Seconds() }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finitePositive reports whether v is a usable measurement.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }
