package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vals by the nearest-rank rule
// on a sorted copy; 0 for an empty sample.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
