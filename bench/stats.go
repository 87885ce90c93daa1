package main

import (
	"math"
	"sort"
)

// metric is one reported number. IQR is the across-window interquartile
// range where the value is a median of per-window values, else zero.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	IQR   float64 `json:"iqr,omitempty"`
}

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile (p in [0,100]) of v; 0 for an
// empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqr is Q3-Q1 by the exclusive method — the same quartiles Python's
// statistics.quantiles(v, n=4) returns, so spreads computed here match the
// ones the driver computes over its runs. Fewer than two values give 0.
func iqr(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sorted(v)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return q(3) - q(1)
}

// windowed summarises per-window values as their median with the IQR
// beside it.
func windowed(v []float64, unit string) metric {
	return metric{Value: median(v), Unit: unit, IQR: iqr(v)}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
