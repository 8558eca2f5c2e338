package predictor

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/loggen"
)

// outputKey renders an output fully enough that two runs agree on it only
// if they produced the same prediction or failure.
func outputKey(o Output) string {
	if o.Prediction != nil {
		p := o.Prediction
		return fmt.Sprintf("pred %s %s#%d first=%d at=%d len=%d",
			p.Node, p.ChainName, p.ChainIndex, p.FirstAt.UnixNano(), p.MatchedAt.UnixNano(), p.Length)
	}
	return fmt.Sprintf("fail %s %d at=%d", o.Failure.Node, o.Failure.Phrase, o.Failure.Time.UnixNano())
}

func outputNode(o Output) string {
	if o.Prediction != nil {
		return o.Prediction.Node
	}
	return o.Failure.Node
}

// TestManagerWorkersShareCompiledModel: NewManager compiles the model once,
// so every worker holds the same scanner and rule set, and the shared model
// still reproduces a lone Predictor exactly — the same outputs, in the same
// order for each node — on four dialects' logs.
func TestManagerWorkersShareCompiledModel(t *testing.T) {
	for di, d := range []*loggen.Dialect{
		loggen.DialectXC30, loggen.DialectXE6, loggen.DialectBGP, loggen.DialectCassandra,
	} {
		t.Run(d.Name, func(t *testing.T) {
			log, err := loggen.Generate(loggen.Config{
				Dialect: d, Seed: int64(61 + di), Duration: 2 * time.Hour,
				Nodes: 16, Failures: 6, AnomalyRate: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			chains, inv := d.Chains(), d.Inventory()
			m, err := NewManager(chains, inv, Options{}, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range m.workers {
				if w.pred.Scanner() != m.workers[0].pred.Scanner() || w.pred.RuleSet() != m.workers[0].pred.RuleSet() {
					t.Fatalf("worker %d compiled its own model", i)
				}
			}

			ref, err := New(chains, inv, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var want []Output
			lines := log.Lines()
			for _, line := range lines {
				out, err := ref.ProcessLine(line)
				if err != nil {
					t.Fatal(err)
				}
				if out.Prediction != nil || out.Failure != nil {
					want = append(want, out)
				}
			}
			if len(want) == 0 {
				t.Fatal("reference produced no outputs; the comparison would be vacuous")
			}

			var got []Output
			done := make(chan struct{})
			go func() {
				defer close(done)
				for out := range m.Results() {
					got = append(got, out)
				}
			}()
			for start := 0; start < len(lines); start += 64 {
				if _, err := m.ProcessLineBatch(lines[start:min(start+64, len(lines))]); err != nil {
					t.Fatal(err)
				}
			}
			m.Close()
			<-done

			perNode := func(outs []Output) map[string][]string {
				by := map[string][]string{}
				for _, o := range outs {
					by[outputNode(o)] = append(by[outputNode(o)], outputKey(o))
				}
				return by
			}
			gotBy, wantBy := perNode(got), perNode(want)
			if len(got) != len(want) || len(gotBy) != len(wantBy) {
				t.Fatalf("%d outputs over %d nodes, reference %d over %d", len(got), len(gotBy), len(want), len(wantBy))
			}
			for node, w := range wantBy {
				if g := gotBy[node]; !slices.Equal(g, w) {
					t.Errorf("node %s:\n got  %q\n want %q", node, g, w)
				}
			}
			if st, rst := m.Stats(), ref.Stats(); st != rst {
				t.Errorf("stats %+v, reference %+v", st, rst)
			}
		})
	}
}
