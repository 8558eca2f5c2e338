package main

import (
	"fmt"
	"time"

	"repro/internal/lexgen"
	"repro/internal/loggen"
)

// workload is one benchmark scenario: the log it replays, the daemon
// configuration it runs, and the sizes of its phases.
type workload struct {
	name string
	why  string
	log  loggen.Config // Seed comes from --seed

	shards  int
	wal     bool // -data-dir -fsync batch
	arbiter bool // -arbiter: alert polls, and the final ranking is checked
	crash   bool // SIGKILL after ingest; setup_s is the WAL-replay restart

	// Each round runs unpacedReps repetitions of unpacedLines lines back to
	// back; the round's rate is their total lines over their total time.
	unpacedReps, unpacedLines int

	rateLow, rateHigh float64 // open-loop offered rates, lines/s
	alertRate         float64 // ingest rate while alerts are polled, lines/s (arbiter only)
	alertPeriod       time.Duration
}

// The three workloads. Rates are absolute and well under the measured
// unpaced capacity of each configuration on a 2-CPU host, so the open-loop
// phases measure latency, not saturation.
var workloads = []*workload{
	{
		name: "storm",
		why:  "failure storm, 2048 nodes all failing, ~26% FC lines: scanner FC path, LALR parser, predictor fan-out, hub/HTTP delivery; no WAL, no arbiter, one shard; 20k/60k lines/s",
		log: loggen.Config{
			Dialect: loggen.DialectXC30, Duration: 30 * time.Minute,
			Nodes: 2048, Failures: 2048, BenignPerMinute: 1,
		},
		shards: 1, unpacedReps: 6, unpacedLines: 300_000,
		rateLow: 20000, rateHigh: 60000,
	},
	{
		name: "fleet",
		why:  "quiet fleet, 8192 nodes, ~9% FC lines, -data-dir -fsync batch -shards 2 -arbiter: transport, WAL append+fsync, router, benign scans, arbiter; 90k/180k lines/s",
		log: loggen.Config{
			Dialect: loggen.DialectXC30, Duration: 30 * time.Minute,
			Nodes: 8192, Failures: 2048, BenignPerMinute: 1.5,
		},
		shards: 2, wal: true, arbiter: true, unpacedReps: 3, unpacedLines: 300_000,
		rateLow: 90000, rateHigh: 180000,
		alertRate: 30000, alertPeriod: 12 * time.Millisecond,
	},
	{
		name: "recover",
		why:  "storm log journaled with -fsync batch, no snapshot, no arbiter, SIGKILL and restart on the same dir: setup_s is WAL replay through the parser; 20k/60k lines/s",
		log: loggen.Config{
			Dialect: loggen.DialectXC30, Duration: 30 * time.Minute,
			Nodes: 2048, Failures: 2048, BenignPerMinute: 1,
		},
		shards: 1, wal: true, crash: true, unpacedReps: 3, unpacedLines: 300_000,
		rateLow: 20000, rateHigh: 60000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// corpus is one generated log, replayable as an endless line sequence: line
// i is event i%len of pass i/len, shifted in time by pass × span, so every
// node's lines stay in order and keep their gaps across passes.
type corpus struct {
	events []loggen.Event
	suffix []string // " node message\n", pre-rendered once
	span   time.Duration
}

func newCorpus(cfg loggen.Config, seed int64) (*corpus, error) {
	cfg.Seed = seed
	lg, err := loggen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	c := &corpus{events: lg.Events, span: cfg.Duration}
	c.suffix = make([]string, len(lg.Events))
	for i, e := range lg.Events {
		c.suffix[i] = " " + e.Node + " " + e.Message + "\n"
	}
	return c, nil
}

func (c *corpus) perPass() int { return len(c.events) }

// chunk is a rendered run of consecutive lines: one byte buffer for the
// socket and the same lines as strings (sharing one allocation) for the
// in-process consumers.
type chunk struct {
	first int // global index of lines[0]
	buf   []byte
	ends  []int // ends[i] is the buffer offset just past line i's newline
	lines []string
}

// render produces lines [first, first+n).
func (c *corpus) render(first, n int) *chunk {
	ch := &chunk{first: first, ends: make([]int, n)}
	buf := make([]byte, 0, n*90)
	per := c.perPass()
	for i := 0; i < n; i++ {
		g := first + i
		e := g % per
		shift := time.Duration(g/per) * c.span
		buf = c.events[e].Time.Add(shift).UTC().AppendFormat(buf, lexgen.LineFormat)
		buf = append(buf, c.suffix[e]...)
		ch.ends[i] = len(buf)
	}
	ch.buf = buf
	s := string(buf)
	ch.lines = make([]string, n)
	start := 0
	for i, end := range ch.ends {
		ch.lines[i] = s[start : end-1]
		start = end
	}
	return ch
}

// bytesFor returns the socket bytes of chunk-relative lines [from, to).
func (ch *chunk) bytesFor(from, to int) []byte {
	start := 0
	if from > 0 {
		start = ch.ends[from-1]
	}
	return ch.buf[start:ch.ends[to-1]]
}

// joinChunks concatenates consecutive chunks into one.
func joinChunks(chs []*chunk) *chunk {
	if len(chs) == 1 {
		return chs[0]
	}
	out := &chunk{first: chs[0].first}
	for _, ch := range chs {
		base := len(out.buf)
		out.buf = append(out.buf, ch.buf...)
		for _, e := range ch.ends {
			out.ends = append(out.ends, base+e)
		}
		out.lines = append(out.lines, ch.lines...)
	}
	return out
}
