package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it
// may be reported: a p95 read from 40 samples rests on two values and
// moves with each of them.
const minTail = 10

// Samples collects one measurement per event (µs, ms, ...).
type Samples struct {
	v      []float64
	sorted bool
}

// Add records one measurement.
func (s *Samples) Add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

// N is the sample count.
func (s *Samples) N() int { return len(s.v) }

// Mean is the arithmetic mean; 0 for no samples.
func (s *Samples) Mean() Stat {
	if len(s.v) == 0 {
		return Stat{}
	}
	sum := 0.0
	for _, x := range s.v {
		sum += x
	}
	return Stat{Value: sum / float64(len(s.v)), N: int64(len(s.v))}
}

// Stat is a figure together with the number of samples or the base
// count it was computed from.
type Stat struct {
	Value float64
	N     int64
}

// Percentile returns the nearest-rank p-th percentile with its sample
// count. It refuses (returns an error) when fewer than minTail samples
// lie beyond the percentile, so a reported tail always rests on at
// least that many observations.
func (s *Samples) Percentile(p float64) (Stat, error) {
	n := len(s.v)
	if p <= 0 || p >= 100 {
		return Stat{}, fmt.Errorf("percentile %g out of (0,100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; n == 0 || beyond < minTail {
		return Stat{N: int64(n)}, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			p, minTail, max(n-rank, 0), n)
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	return Stat{Value: s.v[rank-1], N: int64(n)}, nil
}

// Ratio is a share that carries its base: Num of Den.
type Ratio struct {
	Num, Den int64
}

// Stat returns the ratio as a value over its base; 0 of 0 reads 0.
func (r Ratio) Stat() Stat {
	if r.Den == 0 {
		return Stat{}
	}
	return Stat{Value: float64(r.Num) / float64(r.Den), N: r.Den}
}

// median returns the middle value of xs (mean of the middle two for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
