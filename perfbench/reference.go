package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/arbiter"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/ring"
	"repro/internal/serve/shard"
)

// outKey identifies one predictor output the way a consumer sees it:
// (node, chain, matched_at, kind). A failure's chain is empty and its time is
// the failure's arrival.
type outKey struct {
	node    string
	chain   string
	at      int64 // UnixNano
	failure bool
}

func keyOf(out predictor.Output) (outKey, bool) {
	switch {
	case out.Prediction != nil:
		p := out.Prediction
		return outKey{node: p.Node, chain: p.ChainName, at: p.MatchedAt.UnixNano()}, true
	case out.Failure != nil:
		f := out.Failure
		return outKey{node: f.Node, at: f.Time.UnixNano(), failure: true}, true
	}
	return outKey{}, false
}

// refOut is one expected output and the global index of the line that
// produced it (the line whose due time starts a latency sample).
type refOut struct {
	key  outKey
	line int
}

// matcher pairs delivered outputs with expected ones. One key may be
// expected more than once (a node can log the same phrase twice in one
// millisecond); each delivery consumes the earliest unconsumed expectation.
type matcher struct {
	want  map[outKey][]int // key → expected output indices, in line order
	extra int              // deliveries nobody expected
}

func newMatcher() *matcher { return &matcher{want: map[outKey][]int{}} }

func (m *matcher) expect(k outKey, idx int) { m.want[k] = append(m.want[k], idx) }

// match consumes one expectation for k, returning its output index.
func (m *matcher) match(k outKey) (int, bool) {
	q := m.want[k]
	if len(q) == 0 {
		m.extra++
		return -1, false
	}
	if len(q) == 1 {
		delete(m.want, k)
	} else {
		m.want[k] = q[1:]
	}
	return q[0], true
}

// reference is the single-threaded in-process oracle: a bare
// predictor.Predictor over the same lines in the same order, and (when the
// workload runs the arbiter) one arbiter per daemon shard, partitioned by
// the daemon's own ring so stream clocks and precision ledgers agree.
type reference struct {
	pred *predictor.Predictor
	arbs []*arbiter.Arbiter
	ring *ring.Ring

	outs    []refOut
	lines   int
	predDur time.Duration // predictor time only: the ref.lines_per_s figure
}

func newReference(shards int, arb bool) (*reference, error) {
	p, err := predictor.New(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(), predictor.Options{})
	if err != nil {
		return nil, err
	}
	r := &reference{pred: p}
	if arb {
		r.arbs = make([]*arbiter.Arbiter, shards)
		for i := range r.arbs {
			r.arbs[i] = arbiter.New(arbiter.Config{})
		}
		if shards > 1 {
			members := make([]string, shards)
			for i := range members {
				members[i] = shard.MemberName(i)
			}
			r.ring = ring.New(0, members...)
		}
	}
	return r, nil
}

func (r *reference) arbFor(node string) *arbiter.Arbiter {
	if r.ring == nil {
		return r.arbs[0]
	}
	return r.arbs[r.ring.LookupIndex(node)]
}

// feed advances the oracle over a chunk and records its expected outputs.
func (r *reference) feed(ch *chunk) error {
	base := len(r.outs)
	t0 := time.Now()
	for i, line := range ch.lines {
		out, err := r.pred.ProcessLine(line)
		if err != nil {
			return fmt.Errorf("reference: line %d: %w", ch.first+i, err)
		}
		if k, ok := keyOf(out); ok {
			r.outs = append(r.outs, refOut{key: k, line: ch.first + i})
		}
	}
	r.predDur += time.Since(t0)
	r.lines += len(ch.lines)
	if r.arbs == nil {
		return nil
	}
	// The daemon observes every parseable line as a heartbeat before the
	// line's outputs reach the arbiter through the fan-out. Its state is
	// built to equal in-order processing as long as that lag stays short, so
	// the oracle interleaves: line i's heartbeat, then line i's outputs.
	j := base
	for i, line := range ch.lines {
		ts, node, _, err := lexgen.ParseLine(line)
		if err != nil {
			return err
		}
		r.arbFor(node).ObserveHeartbeat(node, ts)
		for ; j < len(r.outs) && r.outs[j].line == ch.first+i; j++ {
			o := r.outs[j]
			a := r.arbFor(o.key.node)
			if o.key.failure {
				a.ObserveFailure(o.key.node, time.Unix(0, o.key.at).UTC())
			} else {
				a.ObservePrediction(o.key.node, o.key.chain, time.Unix(0, o.key.at).UTC())
			}
		}
	}
	return nil
}

// counts is how many predictions and failures the reference produced.
func (r *reference) counts() (preds, fails uint64) {
	for _, o := range r.outs {
		if o.key.failure {
			fails++
		} else {
			preds++
		}
	}
	return preds, fails
}

// alerts is the merged ranking the daemon's /predictions?mode=alerts serves.
func (r *reference) alerts() []arbiter.Alert {
	var all []arbiter.Alert
	for _, a := range r.arbs {
		all = a.AlertsInto(all)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	return all
}

// sameRanking reports whether two alert rankings agree on order, node,
// score and probability.
func sameRanking(got, want []arbiter.Alert) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d alerts, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.Score != w.Score || g.Probability != w.Probability {
			return fmt.Errorf("rank %d: got %s score %v p %v, reference %s score %v p %v",
				i, g.Node, g.Score, g.Probability, w.Node, w.Score, w.Probability)
		}
	}
	return nil
}
