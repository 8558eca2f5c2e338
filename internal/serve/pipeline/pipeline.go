// Package pipeline is the serving daemon's ingest spine: one bounded queue
// of raw log lines feeding a single pump goroutine that cuts the stream into
// count/bytes/age-bounded batches and hands each batch to a Sink. The
// WAL-append-before-parse hot path lives behind the Sink, in the shard layer;
// this package knows nothing about journals, predictors or shards — only
// queue discipline (Block backpressure vs Shed drop-and-count), producer
// registration (so a drain can close the queue with no writer left behind),
// and batch formation. It imports nothing above the standard library.
package pipeline

import (
	"sync"
	"sync/atomic"
	"time"
)

// Policy says what happens when the ingest queue is full.
type Policy string

const (
	// Block makes producers wait for queue space — backpressure propagates
	// to TCP senders through the kernel socket buffers. No accepted line is
	// ever dropped.
	Block Policy = "block"
	// Shed drops the line immediately and counts it in Dropped — bounded
	// latency at the cost of loss under overload.
	Shed Policy = "shed"
)

// Sink consumes drained lines. ProcessBatch runs on the pump goroutine and
// must fully process its input before returning — "pump exited" means every
// accepted line reached the Sink.
type Sink interface {
	// ProcessBatch handles one pump batch. The slice is reused for the next
	// batch after the call returns; implementations must not retain it.
	ProcessBatch(batch []string)
}

// item is one queued line plus its provenance. fwd marks a line that already
// made one cross-daemon hop (it arrived over a peer-forwarded connection):
// the pump routes those to the forward sink, which must process them locally
// no matter what the placement table says — a line never travels twice.
type item struct {
	line string
	fwd  bool
}

// Config parameterizes a Pipeline. Callers pass already-defaulted values
// (the serve layer owns configuration policy); New only guards against
// outright invalid ones.
type Config struct {
	// QueueSize bounds the ingest queue.
	QueueSize int
	// Overflow is the queue-full policy.
	Overflow Policy
	// BatchMax caps how many queued lines the pump coalesces into one Sink
	// batch. 1 hands the Sink batches of one line.
	BatchMax int
	// BatchMaxBytes caps the byte size of one pump batch.
	BatchMaxBytes int
	// BatchAge caps how long the pump waits for a partial batch to fill
	// before dispatching it. 0 never waits: the pump drains whatever is
	// queued and dispatches immediately.
	BatchAge time.Duration
	// OnDrained, when non-nil, runs on the pump goroutine after the queue
	// has closed and the final batch has reached the Sink, before Done
	// closes — the hook the serve layer uses for the final checkpoint.
	OnDrained func()
	// Forward, when non-nil, receives lines enqueued via IngestForwarded
	// (lines that already made their one cross-daemon hop). Nil routes them
	// to the primary Sink. Single-daemon deployments never set it.
	Forward Sink
}

// Pipeline is the bounded ingest queue plus its single-consumer pump.
// Construct with New, start the pump with Start, stop by StartDrain +
// CloseQueue once producers are gone.
type Pipeline struct {
	cfg     Config
	sink    Sink
	fwdSink Sink
	queue   chan item

	accepted  atomic.Int64
	dropped   atomic.Int64
	forwarded atomic.Int64

	// prodMu serializes producer registration against drain start, so the
	// queue can be closed with no writer left behind.
	prodMu   sync.Mutex
	draining bool
	prodWG   sync.WaitGroup

	done chan struct{}

	// TestHookDelay, when non-nil, runs before each dequeued line is handed
	// onward — tests use it to hold the queue full and exercise the overflow
	// policies deterministically. Set it before Start.
	TestHookDelay func()
}

// New builds a Pipeline over the given sink. The pump does not run until
// Start.
func New(cfg Config, sink Sink) *Pipeline {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 1
	}
	if cfg.BatchMaxBytes <= 0 {
		cfg.BatchMaxBytes = 256 << 10
	}
	if cfg.Overflow == "" {
		cfg.Overflow = Block
	}
	fwd := cfg.Forward
	if fwd == nil {
		fwd = sink
	}
	return &Pipeline{
		cfg:     cfg,
		sink:    sink,
		fwdSink: fwd,
		queue:   make(chan item, cfg.QueueSize),
		done:    make(chan struct{}),
	}
}

// Start launches the pump goroutine.
func (p *Pipeline) Start() { go p.pump() }

// BeginProduce registers a queue producer; it fails once draining so the
// queue can be closed safely. Callers must pair a true return with
// EndProduce.
func (p *Pipeline) BeginProduce() bool {
	p.prodMu.Lock()
	defer p.prodMu.Unlock()
	if p.draining {
		return false
	}
	p.prodWG.Add(1)
	return true
}

// EndProduce releases a producer registration.
func (p *Pipeline) EndProduce() { p.prodWG.Done() }

// Ingest enqueues one raw log line under the configured overflow policy.
// The caller must hold a producer registration. Reports whether the line
// was accepted.
func (p *Pipeline) Ingest(line string) bool {
	return p.enqueue(item{line: line})
}

// IngestForwarded enqueues a line that arrived over a peer-forwarded
// connection. It flows through the same bounded queue (one backpressure
// domain) but is dispatched to the Forward sink, which processes it locally —
// forwarded lines never hop again.
func (p *Pipeline) IngestForwarded(line string) bool {
	if p.enqueue(item{line: line, fwd: true}) {
		p.forwarded.Add(1)
		return true
	}
	return false
}

func (p *Pipeline) enqueue(it item) bool {
	if p.cfg.Overflow == Shed {
		select {
		case p.queue <- it:
			p.accepted.Add(1)
			return true
		default:
			p.dropped.Add(1)
			return false
		}
	}
	p.queue <- it
	p.accepted.Add(1)
	return true
}

// Draining reports whether StartDrain has been called.
func (p *Pipeline) Draining() bool {
	p.prodMu.Lock()
	defer p.prodMu.Unlock()
	return p.draining
}

// StartDrain refuses new producers; existing registrations may still finish
// enqueueing.
func (p *Pipeline) StartDrain() {
	p.prodMu.Lock()
	p.draining = true
	p.prodMu.Unlock()
}

// ProducersIdle returns a channel that closes once every registered producer
// has called EndProduce.
func (p *Pipeline) ProducersIdle() <-chan struct{} {
	idle := make(chan struct{})
	go func() { p.prodWG.Wait(); close(idle) }()
	return idle
}

// CloseQueue closes the ingest queue. Only call after StartDrain and once
// ProducersIdle has fired — a producer racing a closed channel panics.
func (p *Pipeline) CloseQueue() { close(p.queue) }

// Done closes once the pump has exited: the queue is drained, every accepted
// line has reached the Sink, and OnDrained has returned.
func (p *Pipeline) Done() <-chan struct{} { return p.done }

// Depth is the number of queued, not-yet-pumped lines.
func (p *Pipeline) Depth() int { return len(p.queue) }

// Capacity is the queue bound.
func (p *Pipeline) Capacity() int { return cap(p.queue) }

// Accepted is the number of lines enqueued so far.
func (p *Pipeline) Accepted() int64 { return p.accepted.Load() }

// Dropped is the number of lines shed at a full queue.
func (p *Pipeline) Dropped() int64 { return p.dropped.Load() }

// Forwarded is the number of peer-forwarded lines accepted so far.
func (p *Pipeline) Forwarded() int64 { return p.forwarded.Load() }

// pump is the single consumer of the ingest queue: every accepted line flows
// through it into the Sink, so "queue drained + pump exited" means every
// accepted line reached the Sink. It blocks for the first line, then collects
// until BatchMax lines, BatchMaxBytes bytes, BatchAge of waiting, or an empty
// queue (BatchAge 0), and hands the group to the Sink. Collection happens
// outside any sink-side lock, so snapshots and hot-swaps interleave at batch
// boundaries.
func (p *Pipeline) pump() {
	defer close(p.done)
	p.pumpBatches()
	if p.cfg.OnDrained != nil {
		p.cfg.OnDrained()
	}
}

// pumpBatches is pump's collection loop; it returns once the queue is closed
// and its last batch has reached the Sink.
//
//aarohi:hotpath
func (p *Pipeline) pumpBatches() {
	var (
		batch   []string
		closed  bool
		carry   item // first line of the next batch when provenance flips
		carried bool
	)
	// The age timer starts stopped and is armed per batch. go.mod pins the
	// go 1.22 language version, so classic timer rules apply: Stop and drain
	// before every Reset.
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	defer timer.Stop()
	for !closed {
		var it item
		if carried {
			it, carried = carry, false
		} else {
			var ok bool
			it, ok = <-p.queue
			if !ok {
				return
			}
		}
		// The test hook runs after the first dequeue, before any further
		// draining, so queue-overflow tests can hold the pump with a known
		// queue state.
		if p.TestHookDelay != nil {
			p.TestHookDelay()
		}
		batch = append(batch[:0], it.line)
		fwd := it.fwd
		nbytes := len(it.line)
		if p.cfg.BatchAge > 0 {
			timer.Reset(p.cfg.BatchAge)
		}
	collect:
		// Each batch is provenance-uniform: a line whose fwd flag differs
		// from the batch head's closes the batch and seeds the next one, so
		// arrival order is preserved across the two sinks.
		for len(batch) < p.cfg.BatchMax && nbytes < p.cfg.BatchMaxBytes {
			select {
			case it, ok := <-p.queue:
				if !ok {
					closed = true
					break collect
				}
				if it.fwd != fwd {
					carry, carried = it, true
					break collect
				}
				batch = append(batch, it.line)
				nbytes += len(it.line)
			default:
				if p.cfg.BatchAge <= 0 {
					break collect // opportunistic only: queue is empty, go
				}
				select {
				case it, ok := <-p.queue:
					if !ok {
						closed = true
						break collect
					}
					if it.fwd != fwd {
						carry, carried = it, true
						break collect
					}
					batch = append(batch, it.line)
					nbytes += len(it.line)
				case <-timer.C:
					break collect // the partial batch is old enough
				}
			}
		}
		if p.cfg.BatchAge > 0 {
			stopTimer(timer)
		}
		if fwd {
			p.fwdSink.ProcessBatch(batch)
		} else {
			p.sink.ProcessBatch(batch)
		}
	}
}

// stopTimer stops t and drains a concurrent fire, leaving it safe to Reset
// (pre-1.23 timer semantics; the module targets go 1.22).
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
