package main

import (
	"sort"
	"time"
)

// samples is a list of measurements in one unit.
type samples []float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s samples) median() float64 { return s.quantile(0.5) }
func (s samples) p99() float64    { return s.quantile(0.99) }

func (s samples) total() (t float64) {
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 { return ratio(s.total(), float64(len(s))) }

// quantile is the q-quantile by linear interpolation between order
// statistics; 0 for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

// minus is a - b element by element over their common length: the self
// time of a ladder rung is its samples minus the rung below's, request by
// request.
func minus(a, b samples) samples {
	out := make(samples, min(len(a), len(b)))
	for i := range out {
		out[i] = a[i] - b[i]
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one measured value as the result line carries it, with the
// number of samples behind it for the printed table.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}
