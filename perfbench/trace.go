package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	aarohi "repro"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/parser"
	"repro/internal/predictor"
	"repro/internal/ring"
	"repro/internal/serve/pipeline"
	"repro/internal/serve/shard"
	"repro/internal/serve/transport"
	"repro/internal/wal"
)

// The traced run assembles the daemon's layers in process from their public
// constructors — transport.NewTCP → pipeline.New → shard.NewRouter/shard.New
// → predictor.Manager — and wraps each boundary it can reach from outside
// (the transport.Ingestor seam, the pipeline.Sink seam, the Manager's
// heartbeat hook and the shard's Publish callback) in spans. Layers that
// cannot be wrapped from outside are timed by calling their public
// functions on the same lines and batches.

// traceLines is how many corpus lines the in-process assembly ingests.
const traceLines = 300_000

// span is one timed interval; times are ns since the trace's base.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
	Lines  int    `json:"lines,omitempty"`
}

// tracer holds the spans and per-line timestamps of one traced assembly.
type tracer struct {
	base time.Time

	// Written only by the transport's connection goroutine.
	enq      []int64 // per line: when Ingest returned (the line is queued)
	ingestNs int64   // Σ time inside Ingest (queue work and backpressure)
	first    int64   // first Ingest start
	last     int64   // last Ingest end
	seq      int

	// Written only by the pump goroutine.
	batches   []span
	queueWait samples // µs, per line
	routed    int
	subs      [][][]string // per shard: the sub-batches it was handed, in order

	ring  *ring.Ring
	inbox []*inboxTrace
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// tracingIngestor wraps the pipeline's Ingestor face for the transport.
type tracingIngestor struct {
	*pipeline.Pipeline
	t *tracer
}

func (ti tracingIngestor) Ingest(line string) bool {
	t := ti.t
	t0 := t.now()
	ok := ti.Pipeline.Ingest(line)
	t1 := t.now()
	if t.seq == 0 {
		t.first = t0
	}
	t.enq[t.seq] = t1
	t.seq++
	t.ingestNs += t1 - t0
	t.last = t1
	return ok
}

// tracingSink wraps the Router as the pipeline's Sink.
type tracingSink struct {
	inner pipeline.Sink
	t     *tracer
}

func (ts tracingSink) ProcessLine(line string) { ts.ProcessBatch([]string{line}) }

func (ts tracingSink) ProcessBatch(batch []string) {
	t := ts.t
	start := t.now()
	first := t.routed
	for j := range batch {
		t.queueWait.add(float64(start-t.enq[first+j]) / 1e3)
	}
	id := len(t.batches)
	// Mirror the router's split, so each shard's inbox trace knows the size
	// and dispatch time of the sub-batches it will receive and timeWAL can
	// journal exactly what each shard journals.
	subs := make([][]string, len(t.subs))
	for _, line := range batch {
		i := 0
		if t.ring != nil {
			i = t.ring.LookupIndex(shard.RouteKey(line))
		}
		subs[i] = append(subs[i], line)
	}
	for i, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		t.subs[i] = append(t.subs[i], sub)
		if t.ring != nil {
			t.inbox[i].push(start, len(sub), id)
		}
	}
	ts.inner.ProcessBatch(batch)
	t.routed += len(batch)
	t.batches = append(t.batches, span{Name: "pipeline.sink", Start: start, End: t.now(), Batch: id, Lines: len(batch)})
}

// inboxTrace times how long each sub-batch sits in a shard worker's inbox:
// from the router's dispatch to the first line reaching the shard's
// Manager (observed through the heartbeat hook, which ProcessLineBatch
// calls for every line before dispatching it to its workers). Between the
// two the shard journals the sub-batch; traceRun takes that append's time,
// measured by timeWAL on the same sub-batch, off the span's end, so the
// span ends where the worker picked the sub-batch up.
type inboxTrace struct {
	t         *tracer
	mu        sync.Mutex
	q         []subBatch
	remaining int
	spans     []span
}

type subBatch struct {
	dispatched int64
	n, batch   int
}

func (it *inboxTrace) push(at int64, n, batch int) {
	it.mu.Lock()
	it.q = append(it.q, subBatch{at, n, batch})
	it.mu.Unlock()
}

func (it *inboxTrace) heartbeat(string, time.Time) {
	it.mu.Lock()
	if it.remaining == 0 && len(it.q) > 0 {
		sb := it.q[0]
		it.q = it.q[1:]
		it.spans = append(it.spans, span{Name: "shard.inbox", Start: sb.dispatched, End: it.t.now(), Batch: sb.batch, Lines: sb.n})
		it.remaining = sb.n
	}
	it.remaining--
	it.mu.Unlock()
}

// published is one output as the shard fan-out handed it to Publish.
type published struct {
	at  int64
	key outKey
}

// assemble runs the in-process layer stack over ch, with tracing when t is
// non-nil, and returns the time from the first byte written to the last
// output published.
func assemble(w *workload, ch *chunk, dir string, t *tracer) (time.Duration, []published, error) {
	var (
		pubMu sync.Mutex
		pubs  []published
		base  = time.Now()
	)
	if t != nil {
		base = t.base
	}
	publish := func(out predictor.Output) {
		at := int64(time.Since(base))
		if k, ok := keyOf(out); ok {
			pubMu.Lock()
			pubs = append(pubs, published{at, k})
			pubMu.Unlock()
		}
	}
	shards := make([]*shard.Local, w.shards)
	for i := range shards {
		mgr, err := predictor.NewManager(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(), predictor.Options{}, 0)
		if err != nil {
			return 0, nil, err
		}
		if t != nil && w.shards > 1 {
			mgr.SetHeartbeat(t.inbox[i].heartbeat)
		}
		cfg := shard.Config{Index: i, Logf: func(string, ...any) {}, Publish: publish}
		if w.wal {
			cfg.Dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
			cfg.Fsync = wal.SyncBatch
		}
		shards[i] = shard.New(mgr, cfg)
		shards[i].Start()
		if err := shards[i].Open(nil); err != nil {
			return 0, nil, err
		}
	}
	router := shard.NewRouter(shards)
	var sink pipeline.Sink = router
	if t != nil {
		sink = tracingSink{inner: router, t: t}
	}
	pipe := pipeline.New(pipeline.Config{
		QueueSize: 4096, Overflow: pipeline.Block, BatchMax: 256, BatchMaxBytes: 256 << 10,
		OnDrained: func() { router.FinishIngest(true) },
	}, sink)
	var ing transport.Ingestor = pipe
	if t != nil {
		ing = tracingIngestor{Pipeline: pipe, t: t}
	}
	tcp := transport.NewTCP(transport.Config{MaxLineLen: 1 << 20, Logf: func(string, ...any) {}}, ing, time.Minute)
	if err := tcp.Start("127.0.0.1:0"); err != nil {
		return 0, nil, err
	}
	pipe.Start()

	conn, err := net.Dial("tcp", tcp.Addr().String())
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	_, werr := conn.Write(ch.buf)
	conn.Close()
	for werr == nil && pipe.Accepted() < int64(len(ch.lines)) {
		time.Sleep(100 * time.Microsecond)
	}
	pipe.StartDrain()
	tcp.StopAccepting()
	tcp.SetDrainDeadline(time.Now().Add(time.Second))
	<-pipe.ProducersIdle()
	pipe.CloseQueue()
	<-pipe.Done()
	for _, sh := range shards {
		sh.Close()
	}
	el := time.Since(t0)
	if werr != nil {
		return 0, nil, werr
	}
	return el, pubs, nil
}

// layerRun is the traced run's result: per-layer metrics by name.
type layerRun map[string]metric

func (l layerRun) set(name string, v float64, unit string) { l[name] = metric{v, unit} }

func traceRun(w *workload, corp *corpus, seed int64, root, work string, e2e map[string]metric) (map[string]metric, error) {
	ch := corp.render(0, traceLines)
	ref, err := newReference(w.shards, false)
	if err != nil {
		return nil, err
	}
	if err := ref.feed(ch); err != nil {
		return nil, err
	}
	lm := layerRun{}

	// Untraced, then traced, over the same lines: trace.overhead is their
	// throughput ratio.
	untracedEl, _, err := assemble(w, ch, filepath.Join(work, "asm-plain"), nil)
	if err != nil {
		return nil, err
	}
	t := &tracer{base: time.Now(), enq: make([]int64, len(ch.lines)), subs: make([][][]string, w.shards)}
	if w.shards > 1 {
		members := make([]string, w.shards)
		for i := range members {
			members[i] = shard.MemberName(i)
		}
		t.ring = ring.New(0, members...)
		for i := 0; i < w.shards; i++ {
			t.inbox = append(t.inbox, &inboxTrace{t: t})
		}
	}
	tracedEl, pubs, err := assemble(w, ch, filepath.Join(work, "asm-traced"), t)
	if err != nil {
		return nil, err
	}
	lm.set("trace.overhead", untracedEl.Seconds()/tracedEl.Seconds(), "ratio")
	n := float64(len(ch.lines))

	// Transport: the connection goroutine's time between the first and last
	// Ingest, minus the time inside Ingest (its child span).
	lm.set("transport.ns_per_line", float64(t.last-t.first-t.ingestNs)/n, "ns")
	for _, q := range []struct {
		name string
		q    float64
	}{{"pipeline.queue_wait_p50_us", 0.5}, {"pipeline.queue_wait_p99_us", 0.99}} {
		v, err := t.queueWait.quantile(q.q)
		if err != nil {
			return nil, err
		}
		lm.set(q.name, v, "us")
	}
	lm.set("pipeline.batch_lines_mean", n/float64(len(t.batches)), "lines")

	appendNs, err := timeWAL(lm, w, t.subs, filepath.Join(work, "wal"))
	if err != nil {
		return nil, err
	}
	var inbox samples
	for i, it := range t.inbox {
		for k := range it.spans {
			sp := &it.spans[k]
			sp.End = max(sp.End-appendNs[i][k], sp.Start)
			inbox.add(float64(sp.End-sp.Start) / 1e3)
		}
	}
	if w.shards > 1 {
		v, err := inbox.quantile(0.99)
		if err != nil {
			return nil, fmt.Errorf("shard inbox: %w", err)
		}
		lm.set("shard.inbox_wait_p99_us", v, "us")
	} else {
		lm.set("shard.inbox_wait_p99_us", 0, "us") // single shard: synchronous pass-through
	}

	// Result wait: from the return of the batch that carried an output's
	// line to the output's publication (0 when it beat the return).
	m := newMatcher()
	for i, o := range ref.outs {
		m.expect(o.key, i)
	}
	batchEnd := make([]int64, 0, len(t.batches))
	batchFirst := make([]int, 0, len(t.batches))
	firstLine := 0
	for _, b := range t.batches {
		batchFirst = append(batchFirst, firstLine)
		batchEnd = append(batchEnd, b.End)
		firstLine += b.Lines
	}
	var resultWait samples
	var outSpans []span
	for _, p := range pubs {
		idx, ok := m.match(p.key)
		if !ok {
			continue
		}
		line := ref.outs[idx].line
		b := sort.SearchInts(batchFirst, line+1) - 1
		wait := p.at - batchEnd[b]
		if wait < 0 {
			wait = 0
		}
		resultWait.add(float64(wait) / 1e3)
		outSpans = append(outSpans, span{Name: "predictor.result", Start: batchEnd[b], End: batchEnd[b] + wait, Batch: b})
	}
	if miss := len(ref.outs) - resultWait.n(); miss != 0 || m.extra != 0 {
		return nil, fmt.Errorf("traced assembly: %d outputs missing, %d unexpected", miss, m.extra)
	}
	v, err := resultWait.quantile(0.99)
	if err != nil {
		return nil, fmt.Errorf("result wait: %w", err)
	}
	lm.set("predictor.result_wait_p99_us", v, "us")

	if err := writeSpans(root, w.name, seed, t, outSpans); err != nil {
		return nil, err
	}

	// Layers timed on their public functions over the same batches.
	batches := make([][]string, 0, len(t.batches))
	for i, b := range t.batches {
		batches = append(batches, ch.lines[batchFirst[i]:batchFirst[i]+b.Lines])
	}
	if err := timeRouter(lm, w, ch.lines); err != nil {
		return nil, err
	}
	if err := timeScanParse(lm, ch.lines); err != nil {
		return nil, err
	}
	if err := timePredictor(lm, batches, n); err != nil {
		return nil, err
	}
	if err := timeArbiter(lm, w, ch.lines); err != nil {
		return nil, err
	}
	if err := timeChain18(lm); err != nil {
		return nil, err
	}

	// Coverage: the blocking path's summed per-line self time over the
	// daemon's CPU per line (reported, never gated).
	blocking := lm["transport.ns_per_line"].Value + lm["shard.route_ns_per_line"].Value +
		lm["wal.append_ns_per_line"].Value + lm["predictor.batch_ns_per_line"].Value +
		lm["lexgen.scan_ns_per_line"].Value +
		lm["parser.feed_ns_per_token"].Value*lm["lexgen.fc_share"].Value +
		lm["arbiter.heartbeat_ns"].Value
	lm.set("coverage", blocking/e2e["cpu_ns_per_line"].Value, "ratio")
	return lm, nil
}

// writeSpans stores the traced assembly's spans as NDJSON under
// .bench_build/spans, one file per workload and seed.
func writeSpans(root, name string, seed int64, t *tracer, outSpans []span) error {
	dir := filepath.Join(root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", name, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	id := 0
	emit := func(sp span) {
		id++
		sp.ID = id
		enc.Encode(sp)
	}
	emit(span{Name: "transport", Start: t.first, End: t.last, Batch: -1, Lines: t.seq})
	for _, b := range t.batches {
		b.Parent = 1
		emit(b)
	}
	// Batch spans took IDs 2..len+1; children point at their batch's ID.
	for _, it := range t.inbox {
		for _, sp := range it.spans {
			sp.Parent = sp.Batch + 2
			emit(sp)
		}
	}
	for _, sp := range outSpans {
		sp.Parent = sp.Batch + 2
		emit(sp)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeRouter times the router's placement work per line: the routing-key
// cut plus the consistent-hash lookup. A single shard never routes.
func timeRouter(lm layerRun, w *workload, lines []string) error {
	if w.shards == 1 {
		lm.set("shard.route_ns_per_line", 0, "ns")
		return nil
	}
	members := make([]string, w.shards)
	for i := range members {
		members[i] = shard.MemberName(i)
	}
	r := ring.New(0, members...)
	sink := 0
	t0 := time.Now()
	for _, line := range lines {
		sink += r.LookupIndex(shard.RouteKey(line))
	}
	lm.set("shard.route_ns_per_line", float64(time.Since(t0).Nanoseconds())/float64(len(lines)), "ns")
	runtime.KeepAlive(sink)
	return nil
}

// timeWAL journals each shard's sub-batches to a fresh per-shard journal,
// framed as the daemon's shard frames them, with an explicit Sync after each
// append (the sync figures), then replays every journal. It returns each
// sub-batch's framing+append time, by shard, in submission order.
func timeWAL(lm layerRun, w *workload, subs [][][]string, dir string) ([][]int64, error) {
	appendNs := make([][]int64, len(subs))
	for i := range subs {
		appendNs[i] = make([]int64, len(subs[i]))
	}
	if !w.wal {
		// The workload runs without a journal: the layer is idle.
		lm.set("wal.append_ns_per_line", 0, "ns")
		lm.set("wal.replay_ns_per_line", 0, "ns")
		lm.set("wal.bytes_per_line", 0, "B")
		lm.set("wal.sync_p50_us", 0, "us")
		lm.set("wal.sync_p99_us", 0, "us")
		return appendNs, nil
	}
	var (
		appendTotal, replay time.Duration
		syncs               samples
		bytes               int64
		lines, replayed     int
		recs                [][]byte // reused slot buffers, as the shard does
	)
	for i, shardSubs := range subs {
		sdir := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		l, err := wal.Open(sdir, wal.Options{Sync: wal.SyncBatch})
		if err != nil {
			return nil, err
		}
		for k, b := range shardSubs {
			for len(recs) < len(b) {
				recs = append(recs, nil)
			}
			t0 := time.Now()
			for j, line := range b {
				recs[j] = walRecord(recs[j], line)
			}
			if _, err := l.AppendBatch(recs[:len(b)]); err != nil {
				l.Close()
				return nil, err
			}
			t1 := time.Now()
			if err := l.Sync(); err != nil {
				l.Close()
				return nil, err
			}
			syncs.add(float64(time.Since(t1).Nanoseconds()) / 1e3)
			appendNs[i][k] = t1.Sub(t0).Nanoseconds()
			appendTotal += t1.Sub(t0)
			lines += len(b)
		}
		t0 := time.Now()
		if err := l.Replay(l.FirstIndex(), func(uint64, []byte) error { replayed++; return nil }); err != nil {
			l.Close()
			return nil, err
		}
		replay += time.Since(t0)
		if err := l.Close(); err != nil {
			return nil, err
		}
		if ents, err := os.ReadDir(sdir); err == nil {
			for _, e := range ents {
				if fi, err := e.Info(); err == nil {
					bytes += fi.Size()
				}
			}
		}
	}
	if replayed != lines {
		return nil, fmt.Errorf("wal replay returned %d of %d records", replayed, lines)
	}
	lm.set("wal.append_ns_per_line", float64(appendTotal.Nanoseconds())/float64(lines), "ns")
	lm.set("wal.bytes_per_line", float64(bytes)/float64(lines), "B")
	lm.set("wal.replay_ns_per_line", float64(replay.Nanoseconds())/float64(lines), "ns")
	for _, q := range []struct {
		name string
		q    float64
	}{{"wal.sync_p50_us", 0.5}, {"wal.sync_p99_us", 0.99}} {
		v, err := syncs.quantile(q.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		lm.set(q.name, v, "us")
	}
	return appendNs, nil
}

// walRecord frames one line as the daemon's shard journals it: the line's
// bytes, escaped with a 0 'l' prefix when it starts with 0 (the byte that
// marks the journal's control records).
func walRecord(dst []byte, line string) []byte {
	dst = dst[:0]
	if len(line) > 0 && line[0] == 0 {
		dst = append(dst, 0, 'l')
	}
	return append(dst, line...)
}

// timeScanParse runs the predictor's scanner over every line, then feeds
// the relevant tokens through one parser.Driver per node.
func timeScanParse(lm layerRun, lines []string) error {
	p, err := predictor.New(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(), predictor.Options{})
	if err != nil {
		return err
	}
	sc := p.Scanner()
	toks := make([]core.Token, 0, len(lines)/2)
	t0 := time.Now()
	for _, line := range lines {
		tok, ok, err := sc.ScanLine(line)
		if err != nil {
			return err
		}
		if ok {
			toks = append(toks, tok)
		}
	}
	lm.set("lexgen.scan_ns_per_line", float64(time.Since(t0).Nanoseconds())/float64(len(lines)), "ns")
	lm.set("lexgen.fc_share", float64(len(toks))/float64(len(lines)), "ratio")

	rs := p.RuleSet()
	drivers := map[string]*parser.Driver{}
	for _, tok := range toks {
		if drivers[tok.Node] == nil {
			drivers[tok.Node] = parser.New(rs, tok.Node)
		}
	}
	fed := 0
	t0 = time.Now()
	for _, tok := range toks {
		if !rs.Relevant(tok.Phrase) {
			continue // terminal failure phrases: the predictor reports, never parses, them
		}
		drivers[tok.Node].Feed(tok)
		fed++
	}
	el := time.Since(t0)
	var st parser.Stats
	for _, d := range drivers {
		ds := d.Stats()
		st.Tokens += ds.Tokens
		st.Consumed += ds.Consumed
		st.TimeoutResets += ds.TimeoutResets
	}
	lm.set("parser.feed_ns_per_token", float64(el.Nanoseconds())/float64(max(fed, 1)), "ns")
	lm.set("parser.consumed_share", float64(st.Consumed)/float64(max(st.Tokens, 1)), "ratio")
	lm.set("parser.timeout_resets", float64(st.TimeoutResets), "count")
	return nil
}

// timePredictor times Manager construction (the model compile) and
// ProcessLineBatch's own time over the traced batches.
func timePredictor(lm layerRun, batches [][]string, n float64) error {
	var builds []float64
	var mgr *predictor.Manager
	for i := 0; i < 3; i++ {
		if mgr != nil {
			mgr.Close()
			for range mgr.Results() {
			}
		}
		t0 := time.Now()
		m, err := predictor.NewManager(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(), predictor.Options{}, 0)
		if err != nil {
			return err
		}
		builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
		mgr = m
	}
	lm.set("predictor.build_ms", median(builds), "ms")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for out := range mgr.Results() {
			out.Ack()
		}
	}()
	var el time.Duration
	for _, b := range batches {
		t0 := time.Now()
		if _, err := mgr.ProcessLineBatch(b); err != nil {
			return err
		}
		el += time.Since(t0)
	}
	if err := mgr.Flush(); err != nil {
		return err
	}
	mgr.Close()
	<-done
	lm.set("predictor.batch_ns_per_line", float64(el.Nanoseconds())/n, "ns")
	return nil
}

// timeArbiter feeds every line's heartbeat to one arbiter and times an
// alert scan at the workload's node count (0 for both on workloads that run
// no arbiter), then scans 10³, 10⁴ and 10⁵ synthetic nodes on every
// workload to show how the full rescan scales with fleet size.
func timeArbiter(lm layerRun, w *workload, lines []string) error {
	lm.set("arbiter.heartbeat_ns", 0, "ns")
	lm.set("arbiter.alerts_ms", 0, "ms")
	if w.arbiter {
		type hb struct {
			node string
			ts   time.Time
		}
		beats := make([]hb, len(lines))
		for i, line := range lines {
			ts, node, _, err := lexgen.ParseLine(line)
			if err != nil {
				return err
			}
			beats[i] = hb{node, ts}
		}
		a := arbiter.New(arbiter.Config{})
		t0 := time.Now()
		for _, b := range beats {
			a.ObserveHeartbeat(b.node, b.ts)
		}
		lm.set("arbiter.heartbeat_ns", float64(time.Since(t0).Nanoseconds())/float64(len(beats)), "ns")
		lm.set("arbiter.alerts_ms", alertScanMs(a, 21), "ms")
	}

	for _, sc := range []struct {
		name  string
		nodes int
		reps  int
	}{{"arbiter.alerts_ms.n1e3", 1_000, 51}, {"arbiter.alerts_ms.n1e4", 10_000, 11}, {"arbiter.alerts_ms.n1e5", 100_000, 5}} {
		a := arbiter.New(arbiter.Config{})
		start := time.Date(2015, 3, 14, 0, 0, 0, 0, time.UTC)
		for k := 0; k < 10; k++ {
			for i := 0; i < sc.nodes; i++ {
				a.ObserveHeartbeat(loggen.NodeName(i), start.Add(time.Duration(k)*time.Second+time.Duration(i)*time.Microsecond))
			}
		}
		lm.set(sc.name, alertScanMs(a, sc.reps), "ms")
	}
	debug.FreeOSMemory()
	return nil
}

// alertScanMs is the median AlertsInto time over reps scans.
func alertScanMs(a *arbiter.Arbiter, reps int) float64 {
	var dst []arbiter.Alert
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		dst = a.AlertsInto(dst[:0])
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts)
}

// timeChain18 is the paper's headline: one 18-phrase chain through the
// aarohi facade, reset between chains.
func timeChain18(lm layerRun) error {
	d := loggen.DialectXC30
	fc := experiments.SyntheticChain(d, "FC18", 18)
	lines := experiments.ChainLines(d, fc, "c0-0c2s0n2", 18)
	p, err := aarohi.New([]aarohi.FailureChain{fc}, d.Inventory(), aarohi.Options{})
	if err != nil {
		return err
	}
	var per []float64
	for rep := 0; rep < 15; rep++ {
		const chains = 2000
		t0 := time.Now()
		for i := 0; i < chains; i++ {
			p.Reset()
			for _, line := range lines {
				if _, err := p.ProcessLine(line); err != nil {
					return err
				}
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/chains)
	}
	lm.set("aarohi.chain18_us", median(per), "us")
	return nil
}
