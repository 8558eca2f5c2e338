package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p99 needs 1,000 samples and
// p99.9 needs 10,000. Fewer and the tail is one or two unlucky samples, not a
// distribution.
const minBeyond = 10

// errTooFewSamples reports a percentile the sample count cannot support.
var errTooFewSamples = errors.New("too few samples for this percentile")

// samples is a latency sample set. Lost counts operations that never
// completed (a prediction that never arrived); they rank above every finite
// sample, as +Inf.
type samples struct {
	vals   []float64
	lost   int
	sorted bool
}

func (s *samples) add(v float64) { s.vals = append(s.vals, v); s.sorted = false }

// merge appends o's samples to s.
func (s *samples) merge(o *samples) {
	s.vals = append(s.vals, o.vals...)
	s.lost += o.lost
	s.sorted = false
}

func (s *samples) n() int { return len(s.vals) + s.lost }

// quantile returns the nearest-rank q-quantile (0 < q < 1) with lost samples
// counted as +Inf. It fails when fewer than minBeyond samples lie above the
// quantile's rank.
func (s *samples) quantile(q float64) (float64, error) {
	n := s.n()
	if n == 0 {
		return 0, errTooFewSamples
	}
	rank := int(math.Ceil(q*float64(n))) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	if n-(rank+1) < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w", q*100, n, errTooFewSamples)
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if rank >= len(s.vals) {
		return math.Inf(1), nil
	}
	return s.vals[rank], nil
}

// highestPercentile is the highest of the usual reporting percentiles the
// rule allows for n samples (0 when not even the median qualifies).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		rank := int(math.Ceil(q*float64(n))) - 1
		if n > 0 && n-(rank+1) >= minBeyond {
			best = q * 100
		}
	}
	return best
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so spreads computed here and by a reader with the
// standard library agree to the last digit.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median is Python's statistics.median.
func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartileSpread is the inter-quartile distance as a share of the median:
// the run-to-run noise figure a metric's bound must exceed.
func quartileSpread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// schedule is an open-loop send plan: line i is due at start + i/rate,
// whatever happened to the lines before it. A generator that cannot keep up
// falls late; it never slows the plan down (that would hide the very queueing
// an open-loop test exists to expose).
type schedule struct {
	start time.Time
	rate  float64 // lines per second
	total int
}

// due is line i's planned send time.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * 1e9))
}

// dueBy is how many lines are due at t (lines 0..dueBy-1), capped at total.
func (s schedule) dueBy(t time.Time) int {
	el := t.Sub(s.start)
	if el < 0 {
		return 0
	}
	n := int(el.Seconds()*s.rate) + 1
	if n > s.total {
		n = s.total
	}
	return n
}

// lateness records, for each line, how far behind its due time the
// generator actually handed it to the socket.
type lateness struct {
	ms samples
}

// sent accounts lines [from, to) written at time at. Lines written early
// (never, by construction) would count as 0.
func (l *lateness) sent(s schedule, from, to int, at time.Time) {
	for i := from; i < to; i++ {
		late := at.Sub(s.due(i)).Seconds() * 1e3
		if late < 0 {
			late = 0
		}
		l.ms.add(late)
	}
}
