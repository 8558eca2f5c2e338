package serve

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/predictor"
)

// The batch equivalence suite compares batched runs against a BatchMax=1
// run of the same server, so on its own it can only show that the pump is
// self-consistent. This test pins the server to an independent sequential
// reference instead: one Predictor fed the lines in order, a journal holding
// exactly the accepted lines, and one arbiter observing each parseable
// line's heartbeat followed by that line's outputs.

// oracleRecord frames a line the way the shard journals it: a line starting
// with NUL gets the two-byte escape that keeps it distinct from control
// records.
func oracleRecord(line string) []byte {
	if len(line) > 0 && line[0] == 0 {
		return append([]byte{0, 'l'}, line...)
	}
	return []byte(line)
}

// sequentialOracle computes what a server run must observe, with no queue,
// pump, router, shard or Manager involved.
func sequentialOracle(t *testing.T, d *loggen.Dialect, lines []string, arbCfg arbiter.Config) pipeRun {
	t.Helper()
	p, err := predictor.New(d.Chains(), d.Inventory(), predictor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	arb := arbiter.New(arbCfg)
	run := pipeRun{perNode: map[string][]string{}}
	for _, line := range lines {
		run.wal = append(run.wal, oracleRecord(line))
		ts, node, _, err := lexgen.ParseLine(line)
		if err != nil {
			continue
		}
		arb.ObserveHeartbeat(node, ts)
		out, err := p.ProcessLine(line)
		if err != nil {
			t.Fatalf("predictor rejected a line ParseLine accepted: %v", err)
		}
		if pr := out.Prediction; pr != nil {
			arb.ObservePrediction(pr.Node, pr.ChainName, pr.MatchedAt)
		}
		if f := out.Failure; f != nil {
			arb.ObserveFailure(f.Node, f.Time)
		}
		if k := outKey(out); k != "" {
			run.keys = append(run.keys, k)
			n := outNode(out)
			run.perNode[n] = append(run.perNode[n], k)
		}
	}
	sort.Strings(run.keys)
	var abuf bytes.Buffer
	if err := arb.Snapshot(&abuf); err != nil {
		t.Fatal(err)
	}
	run.arb = abuf.Bytes()
	return run
}

// TestIngestMatchesSequentialOracle: for the same four dialect families and
// seeds as TestBatchPipelineEquivalence, a batch of one and the default
// batch of 256 both reproduce the sequential oracle exactly.
func TestIngestMatchesSequentialOracle(t *testing.T) {
	dialects := []*loggen.Dialect{
		loggen.DialectXC30, loggen.DialectXE6, loggen.DialectBGP, loggen.DialectCassandra,
	}
	for di, d := range dialects {
		d := d
		seed := int64(31 + di)
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			log, err := loggen.Generate(loggen.Config{
				Dialect: d, Seed: seed, Duration: 45 * time.Minute,
				Nodes: 4, Failures: 2, BenignPerMinute: 2, AnomalyRate: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			lines := log.Lines()
			// The arbiter config runBatchPipe gives the server.
			arbCfg := arbiter.Config{AlertThreshold: 1e-9, Horizon: 20 * time.Minute}
			want := sequentialOracle(t, d, lines, arbCfg)
			if len(want.keys) == 0 {
				t.Fatalf("oracle produced no outputs; the comparison would be vacuous")
			}
			for _, batchMax := range []int{1, 256} {
				got := runBatchPipe(t, d, lines, batchMax, 0, true)
				diffRuns(t, fmt.Sprintf("batch=%d vs oracle", batchMax), want, got)
			}
		})
	}
}
