package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestQuantileNeedsTenBeyond(t *testing.T) {
	var s samples
	for i := 1; i <= 999; i++ {
		s.add(float64(i))
	}
	if _, err := s.quantile(0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errTooFewSamples", err)
	}
	s.add(1000)
	v, err := s.quantile(0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (nearest rank)", v)
	}
	if v, _ := s.quantile(0.5); v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", v)
	}
	if got := highestPercentile(1000); got != 99 {
		t.Fatalf("highestPercentile(1000) = %v, want 99", got)
	}
	if got := highestPercentile(10000); got != 99.9 {
		t.Fatalf("highestPercentile(10000) = %v, want 99.9", got)
	}
	if got := highestPercentile(15); got != 0 {
		t.Fatalf("highestPercentile(15) = %v, want 0 (p50 has only 7 beyond)", got)
	}
}

func TestQuantileCountsLostAsInfinite(t *testing.T) {
	var s samples
	for i := 0; i < 985; i++ {
		s.add(1)
	}
	s.lost = 15
	v, err := s.quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, 1) {
		t.Fatalf("p99 with 1.5%% lost = %v, want +Inf", v)
	}
	s.lost = 5
	s.add(2)
	s.add(2)
	s.add(2)
	s.add(2)
	s.add(2)
	s.add(2)
	s.add(2)
	s.add(2)
	s.add(2)
	s.add(2) // 995 finite + 5 lost = 1000
	v, err = s.quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("p99 with 0.5%% lost = %v, want the finite rank-990 sample 2", v)
	}
}

// The expected values come from Python 3: statistics.quantiles(v, n=4)
// and statistics.median(v).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, rate: 1000, total: 50}
	if got := s.due(0); !got.Equal(start) {
		t.Fatalf("due(0) = %v, want start", got)
	}
	if got := s.due(10); !got.Equal(start.Add(10 * time.Millisecond)) {
		t.Fatalf("due(10) = %v, want start+10ms", got.Sub(start))
	}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{
		{-time.Millisecond, 0},    // before the start nothing is due
		{0, 1},                    // line 0 is due at the start
		{time.Millisecond - 1, 1}, // line 1 not yet
		{time.Millisecond, 2},     // line 1 exactly due
		{25*time.Millisecond + 500*time.Microsecond, 26},
		{time.Hour, 50}, // capped at the total
	} {
		if got := s.dueBy(start.Add(c.at)); got != c.want {
			t.Errorf("dueBy(start%+v) = %d, want %d", c.at, got, c.want)
		}
	}
}

// A generator that wakes late sends everything due in one write; each
// line's lateness is measured from its own due time, not the batch's.
func TestLatenessPerLine(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, rate: 1000, total: 10}
	var l lateness
	l.sent(s, 0, 1, start)                         // on time
	l.sent(s, 1, 5, start.Add(4*time.Millisecond)) // lines 1..4 due at 1..4ms
	want := []float64{0, 3, 2, 1, 0}
	if len(l.ms.vals) != len(want) {
		t.Fatalf("%d lateness samples, want %d", len(l.ms.vals), len(want))
	}
	for i, w := range want {
		if math.Abs(l.ms.vals[i]-w) > 1e-9 {
			t.Errorf("line %d lateness %v ms, want %v", i, l.ms.vals[i], w)
		}
	}
}
