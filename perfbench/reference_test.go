package main

import (
	"testing"
	"time"

	"repro/internal/loggen"
	"repro/internal/parser"
	"repro/internal/predictor"
)

// One (node, timestamp) can carry several outputs — a node's failure and a
// chain match in the same millisecond, or the same chain matched twice — and
// each delivery must consume exactly one expectation, earliest first.
func TestMatcherDuplicateKeys(t *testing.T) {
	at := time.Date(2015, 3, 14, 0, 1, 2, 3e6, time.UTC)
	pred := predictor.Output{Prediction: &parser.Prediction{Node: "c0-0c0s0n0", ChainName: "FC1", MatchedAt: at}}
	fail := predictor.Output{Failure: &predictor.ObservedFailure{Node: "c0-0c0s0n0", Time: at}}
	kp, _ := keyOf(pred)
	kf, _ := keyOf(fail)
	if kp == kf {
		t.Fatal("a prediction and a failure at the same (node, time) must not share a key")
	}

	m := newMatcher()
	m.expect(kp, 0)
	m.expect(kf, 1)
	m.expect(kp, 2) // the same chain matched again in the same millisecond

	if idx, ok := m.match(kf); !ok || idx != 1 {
		t.Fatalf("failure matched (%d, %v), want (1, true)", idx, ok)
	}
	if idx, ok := m.match(kp); !ok || idx != 0 {
		t.Fatalf("first prediction matched (%d, %v), want (0, true)", idx, ok)
	}
	if idx, ok := m.match(kp); !ok || idx != 2 {
		t.Fatalf("second prediction matched (%d, %v), want (2, true)", idx, ok)
	}
	if _, ok := m.match(kp); ok {
		t.Fatal("a third delivery of the prediction matched; it must count as extra")
	}
	if m.extra != 1 || len(m.want) != 0 {
		t.Fatalf("extra = %d, pending keys = %d; want 1 and 0", m.extra, len(m.want))
	}
}

// Replaying the log in time-shifted passes keeps every node's lines in
// order, and the reference sees each pass's outputs again, shifted.
func TestCorpusPassesShiftInTime(t *testing.T) {
	c, err := newCorpus(loggen.Config{
		Dialect: loggen.DialectXC30, Duration: 20 * time.Minute,
		Nodes: 8, Failures: 4, BenignPerMinute: 1,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	per := c.perPass()
	ch := c.render(0, 2*per)
	ref, err := newReference(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.feed(ch); err != nil {
		t.Fatal(err)
	}
	var first, second []refOut
	for _, o := range ref.outs {
		if o.line < per {
			first = append(first, o)
		} else {
			second = append(second, o)
		}
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("pass outputs: %d then %d, want the same non-zero count", len(first), len(second))
	}
	for i := range first {
		a, b := first[i].key, second[i].key
		if a.node != b.node || a.chain != b.chain || a.failure != b.failure ||
			time.Duration(b.at-a.at) != 20*time.Minute || second[i].line-first[i].line != per {
			t.Fatalf("output %d: %+v then %+v, want the same output one span and one pass later", i, first[i], second[i])
		}
	}
	if got := string(ch.bytesFor(per, per+1)); got != ch.lines[per]+"\n" {
		t.Fatalf("bytesFor(per, per+1) = %q, want line %q", got, ch.lines[per])
	}
}
