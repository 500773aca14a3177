package main

import "sort"

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between closest ranks, the rule internal/metrics.Sample uses, so a pooled
// latency quantile here equals what the experiment tables would print. It
// sorts a copy; 0 for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	switch {
	case len(s) == 0:
		return 0
	case q <= 0:
		return s[0]
	case q >= 1:
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// summary is how every host timing is reported: the median over the
// replications with the quartiles and the sample count beside it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{
		Median: quantileSorted(s, 0.5),
		Q1:     quantileSorted(s, 0.25),
		Q3:     quantileSorted(s, 0.75),
		N:      len(s),
	}
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// ratio is num/den with 0 for an empty denominator: a layer that did no work
// on a workload reports 0, not NaN (which JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
