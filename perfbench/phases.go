package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/loggen"
	"repro/internal/predictor"
)

// session is one round: one daemon lifetime driven from this process.
// Lines are numbered across the round's phases (the daemon's parse state
// carries over between them), and every line the daemon gets is fed to the
// reference first.
type session struct {
	w       *workload
	bin     string
	args    []string
	dataDir string
	corp    *corpus
	ref     *reference
	d       *daemon
	next    int // global index of the next line to send

	// Stream accounting, shared with the /predictions reader goroutine.
	mu        sync.Mutex
	m         *matcher
	arrived   []time.Time // by reference output index; zero = not delivered
	expected  int         // outputs registered with the matcher
	delivered int

	// The round's unpaced repetitions that finished, summed.
	unpacedLines int
	unpacedTime  time.Duration

	// The round's latency samples; measure pools them into the tally after
	// taking each round's median.
	predLow, predHigh, alertsLat samples

	t *tally // shared by every round of the run
}

// tally accumulates one run's samples across its rounds. Rounds are spread
// over the whole run, so a slow stretch of a shared host lands in a few
// samples of every metric instead of all samples of one.
type tally struct {
	attempted, failed int
	wrong             int // failures that are wrong answers, not load shed
	problems          []string

	setup    []float64 // seconds
	unpaced  []float64 // lines/s per round, over its repetitions
	cpu      time.Duration
	cpuLines int
	drops    int // outputs the hub dropped for the stream subscriber
	streamed int // outputs expected on the stream
	// Pooled latency samples (the p99 tails) and each round's median.
	predLow, predHigh, alertsLat     samples
	roundLow, roundHigh, roundAlerts []float64
	late                             lateness
	rss                              []float64 // VmHWM per round, MiB
	lines                            int       // lines sent

	refLines int
	refDur   time.Duration
}

// fail counts n failed operations whose result was wrong or absent without
// the daemon saying so: any of them makes the run incorrect.
func (t *tally) fail(n int, format string, args ...any) {
	t.wrong += n
	t.shed(n, format, args...)
}

// shed counts n failed operations the daemon reported shedding itself.
// They count in failed (the error rate) but are not wrong answers.
func (t *tally) shed(n int, format string, args ...any) {
	t.failed += n
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// feed renders lines [first, first+n), runs the reference over them and,
// when the stream is attached, registers their outputs as expected
// deliveries.
func (s *session) feed(first, n int, streamed bool) (*chunk, error) {
	ch := s.corp.render(first, n)
	base := len(s.ref.outs)
	if err := s.ref.feed(ch); err != nil {
		return nil, err
	}
	s.mu.Lock()
	for i := base; i < len(s.ref.outs); i++ {
		s.arrived = append(s.arrived, time.Time{})
		if streamed {
			s.m.expect(s.ref.outs[i].key, i)
			s.expected++
		}
	}
	s.mu.Unlock()
	return ch, nil
}

// stream is one GET /predictions subscriber.
type stream struct {
	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once
}

// attach subscribes to the live prediction stream; deliveries are matched
// against the reference as they arrive.
func (s *session) attach() (*stream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+s.d.httpAddr+"/predictions", nil)
	tr := &http.Transport{DisableCompression: true}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	st := &stream{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(st.done)
		defer tr.CloseIdleConnections()
		defer resp.Body.Close()
		rd := bufio.NewReaderSize(resp.Body, 1<<16)
		for {
			line, err := rd.ReadSlice('\n')
			at := time.Now()
			if err != nil {
				return
			}
			var out predictor.Output
			k, ok := outKey{}, false
			if json.Unmarshal(line, &out) == nil {
				k, ok = keyOf(out)
			}
			s.mu.Lock()
			if !ok {
				s.m.extra++
			} else if idx, hit := s.m.match(k); hit {
				s.arrived[idx] = at
				s.delivered++
			}
			s.mu.Unlock()
		}
	}()
	return st, nil
}

// close detaches the subscriber and waits for its reader; idempotent.
func (st *stream) close() {
	st.once.Do(func() {
		st.cancel()
		<-st.done
	})
}

func (s *session) dial() (net.Conn, error) { return net.Dial("tcp", s.d.tcpAddr) }

// round runs every phase once against a fresh daemon: setup, unpaced
// ingest, the two open-loop rates with the prediction stream attached, alert
// polls beside open-loop ingest (arbiter workloads), the final counter and
// ranking check, and for crash workloads the SIGKILL and journal-replay
// restart. The Go collector is held off while phases are timed so the
// generator's own pauses do not land in the daemon's latency.
//
// The stream is attached only after the unpaced phase. Unpaced, the
// predictor outruns an HTTP subscriber and the hub sheds outputs for it, in
// numbers that follow the host's scheduling from run to run; dropProbe
// measures that shedding in the traced run instead.
func (s *session) round(budget time.Duration) error {
	if err := s.start(); err != nil {
		return err
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < s.w.unpacedReps; i++ {
		runtime.GC() // the previous repetition's lines, outside the timer
		if err := s.unpacedRep(); err != nil {
			return err
		}
	}
	if s.unpacedLines > 0 {
		s.t.unpaced = append(s.t.unpaced, float64(s.unpacedLines)/s.unpacedTime.Seconds())
	}
	st, err := s.attach()
	if err != nil {
		return err
	}
	defer st.close()
	runtime.GC()
	if err := s.openLoop(s.w.rateLow, time.Duration(float64(budget)*0.16), minPreds, &s.predLow); err != nil {
		return err
	}
	runtime.GC()
	if err := s.openLoop(s.w.rateHigh, time.Duration(float64(budget)*0.08), minPreds, &s.predHigh); err != nil {
		return err
	}
	st.close()
	runtime.GC()
	if s.w.arbiter {
		if err := s.alertsPhase(alertPolls / rounds); err != nil {
			return err
		}
	}
	if err := s.finalCheck(); err != nil {
		return err
	}
	if s.w.crash {
		return s.crashRestart()
	}
	return nil
}

// start launches the round's daemon on a fresh state. Its exec→/readyz
// time is a setup_s sample, except in crash workloads, where setup_s is the
// restart that replays the journal.
func (s *session) start() error {
	if err := s.resetDataDir(); err != nil {
		return err
	}
	d, setup, err := startDaemon(s.bin, s.args)
	if err != nil {
		return err
	}
	s.d = d
	if !s.w.crash {
		s.t.setup = append(s.t.setup, setup.Seconds())
	}
	return nil
}

func (s *session) resetDataDir() error {
	if !s.w.wal {
		return nil
	}
	if err := os.RemoveAll(s.dataDir); err != nil {
		return err
	}
	return os.MkdirAll(s.dataDir, 0o755)
}

// unpacedRep writes one repetition as fast as -overflow block admits. The
// timer runs from the first byte until /statusz shows every line processed
// and every reference output produced (see caughtUp). On arbiter workloads
// one alert poll runs while the second half is written: a read beside
// writes, whose effect the final ranking check sees.
func (s *session) unpacedRep() error {
	n := s.w.unpacedLines
	ch, err := s.feed(s.next, n, false)
	if err != nil {
		return err
	}
	cpu0, err := cpuTime(s.d.pid())
	if err != nil {
		return err
	}
	conn, err := s.dial()
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, err = conn.Write(ch.bytesFor(0, n/2))
	var poll chan error
	if err == nil && s.w.arbiter {
		poll = make(chan error, 1)
		go func() { _, err := s.alerts(alertsLimit); poll <- err }()
	}
	if err == nil {
		_, err = conn.Write(ch.bytesFor(n/2, n))
	}
	conn.Close()
	if poll != nil {
		s.t.attempted++
		if perr := <-poll; perr != nil {
			s.t.fail(1, "alert poll during unpaced ingest: %v", perr)
		}
	}
	if err != nil {
		return err
	}
	s.next += n
	st, err := s.d.waitStatus(2*time.Millisecond, 60*time.Second, s.caughtUp())
	end := time.Now()
	if st == nil {
		return fmt.Errorf("unpaced: %w", err)
	}
	if err != nil || st.Manager.LinesScanned != int64(s.next) {
		// No throughput sample from a phase the daemon did not finish.
		s.t.fail(max(s.next-int(st.Manager.LinesScanned), 1), "unpaced: daemon scanned %d of %d lines (%v)",
			st.Manager.LinesScanned, s.next, err)
		return nil
	}
	cpu1, err := cpuTime(s.d.pid())
	if err != nil {
		return err
	}
	s.unpacedLines += n
	s.unpacedTime += end.Sub(t0)
	s.t.cpu += cpu1 - cpu0
	s.t.cpuLines += n
	return nil
}

// caughtUp is the /statusz condition "every line sent so far is processed":
// the managers scanned them all and matched every chain the reference
// matched, and with an arbiter its counters reached the reference's
// prediction and failure counts.
func (s *session) caughtUp() func(*status) bool {
	preds, fails := s.ref.counts()
	total := int64(s.next)
	return func(st *status) bool {
		if st.Manager.LinesScanned < total || st.Manager.Parser.Matches < int64(preds) {
			return false
		}
		if !s.w.arbiter {
			return true
		}
		var p, f uint64
		for _, sh := range st.Shards {
			if sh.Arbiter != nil {
				p += sh.Arbiter.Predictions
				f += sh.Arbiter.Failures
			}
		}
		return p >= preds && f >= fails
	}
}

// sendOpenLoop writes ch on a fresh connection at rate lines/s, each line at
// its due time whatever the daemon's progress, and returns the schedule.
func (s *session) sendOpenLoop(ch *chunk, rate float64) (schedule, error) {
	conn, err := s.dial()
	if err != nil {
		return schedule{}, err
	}
	defer conn.Close()
	n := len(ch.lines)
	sched := schedule{start: time.Now().Add(2 * time.Millisecond), rate: rate, total: n}
	for sent := 0; sent < n; {
		now := time.Now()
		k := sched.dueBy(now)
		if k > sent {
			if _, err := conn.Write(ch.bytesFor(sent, k)); err != nil {
				return sched, err
			}
			s.t.late.sent(sched, sent, k, now)
			sent = k
			continue
		}
		time.Sleep(sched.due(sent).Sub(now))
	}
	s.next += n
	return sched, nil
}

// openLoop offers the daemon rate lines/s for at least dur, and for long
// enough to yield minPreds predictions, with the stream attached. It
// collects one latency sample per expected prediction: due time of the line
// that completed the chain → arrival on the stream. A prediction still
// missing after the grace period is lost (+Inf).
func (s *session) openLoop(rate float64, dur time.Duration, minPreds int, into *samples) error {
	outBase := len(s.ref.outs)
	step := int(rate * dur.Seconds())
	var chunks []*chunk
	for next, preds := s.next, 0; len(chunks) == 0 || preds < minPreds; {
		base := len(s.ref.outs)
		ch, err := s.feed(next, step, true)
		if err != nil {
			return err
		}
		next += step
		chunks = append(chunks, ch)
		for _, o := range s.ref.outs[base:] {
			if !o.key.failure {
				preds++
			}
		}
		step = max(step/4, 1024) // a floor, so a sparse stretch is not fed line by line
	}
	ch := joinChunks(chunks)
	sched, err := s.sendOpenLoop(ch, rate)
	if err != nil {
		return err
	}
	// Grace period: the phase ends when every output it should yield has
	// arrived, or after 5s.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		pending := 0
		for i := outBase; i < len(s.ref.outs); i++ {
			if s.arrived[i].IsZero() {
				pending++
			}
		}
		if pending == 0 || time.Now().After(deadline) {
			break // holding s.mu for the tally below
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	defer s.mu.Unlock()
	for i := outBase; i < len(s.ref.outs); i++ {
		o := s.ref.outs[i]
		if o.key.failure {
			continue
		}
		if at := s.arrived[i]; at.IsZero() {
			into.lost++
		} else {
			into.add(at.Sub(sched.due(o.line-ch.first)).Seconds() * 1e3)
		}
	}
	return nil
}

// alertsLimit is the top-k an alert poll asks for: a dashboard reads the
// head of the ranking. The daemon still rescans and ranks every node per
// poll; only the response body is capped.
const alertsLimit = 20

// alertsPhase ingests open loop at the workload's alert rate while a second
// connection polls GET /predictions?mode=alerts at a fixed period; each
// sample is one poll's request→last-byte time. The stream is detached (two
// connections at most), so this phase's outputs are checked through the
// final ranking and the daemon's counters instead.
func (s *session) alertsPhase(alertPolls int) error {
	dur := time.Duration(alertPolls) * s.w.alertPeriod
	n := int(s.w.alertRate * dur.Seconds())
	ch, err := s.feed(s.next, n, false)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	url := "http://" + s.d.httpAddr + "/predictions?mode=alerts&limit=" + strconv.Itoa(alertsLimit)
	var pollFails int
	go func() {
		defer close(done)
		next := time.Now()
		for polled := 0; polled < alertPolls; polled++ {
			t0 := time.Now()
			resp, err := s.d.client.Get(url)
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			if err != nil {
				pollFails++
			} else {
				s.alertsLat.add(time.Since(t0).Seconds() * 1e3)
			}
			next = next.Add(s.w.alertPeriod)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			} else {
				next = time.Now()
			}
		}
	}()
	_, err = s.sendOpenLoop(ch, s.w.alertRate)
	// The poller stops after its sample count, so every run attempts the
	// same number of polls; ingest lasts about as long at the same period.
	<-done
	s.d.client.CloseIdleConnections()
	s.t.attempted += alertPolls
	if pollFails > 0 {
		s.t.fail(pollFails, "%d alert polls failed", pollFails)
	}
	return err
}

// finalCheck waits for the daemon to finish every line, then compares its
// counters, its alert ranking (arbiter workloads) and the stream's
// deliveries with the reference.
func (s *session) finalCheck() error {
	preds, _ := s.ref.counts()
	total := int64(s.next)
	st, err := s.d.waitStatus(5*time.Millisecond, 30*time.Second, s.caughtUp())
	s.t.attempted += s.next
	var hubDrops int
	if st != nil {
		hubDrops = int(st.SubscriberDrops)
		s.t.drops += hubDrops
		s.t.streamed += s.expected
	}
	if err != nil {
		s.t.fail(1, "final counters: %v", err)
	} else {
		if st.LinesAccepted != total {
			s.t.fail(int(abs64(total-st.LinesAccepted)), "daemon accepted %d of %d lines", st.LinesAccepted, total)
		}
		if st.Manager.Parser.Matches != int64(preds) {
			s.t.fail(1, "daemon matched %d chains, reference %d", st.Manager.Parser.Matches, preds)
		}
	}
	if s.w.arbiter {
		s.t.attempted++
		got, err := s.alerts(0)
		if err != nil {
			s.t.fail(1, "final alerts: %v", err)
		} else if err := sameRanking(got, s.ref.alerts()); err != nil {
			s.t.fail(1, "final alert ranking differs: %v", err)
		}
	}
	rss, err := peakRSS(s.d.pid())
	if err != nil {
		return err
	}
	s.t.rss = append(s.t.rss, rss)
	// Stream bookkeeping: every expected output that never arrived is a
	// failed operation. Those the hub counted as dropped for the subscriber
	// are load shed by the daemon's own policy; any beyond that count, and
	// any delivery the reference did not produce, are wrong answers.
	s.mu.Lock()
	missing := s.expected - s.delivered
	extra := s.m.extra
	s.mu.Unlock()
	s.t.attempted += s.expected
	if dropped := min(missing, hubDrops); dropped > 0 {
		s.t.shed(dropped, "%d expected outputs never arrived on the stream: the hub dropped them for the subscriber (subscriber_drops)", dropped)
	}
	if unexplained := missing - hubDrops; unexplained > 0 {
		s.t.fail(unexplained, "%d expected outputs never arrived on the stream beyond the hub's %d counted drops", unexplained, hubDrops)
	}
	if extra > 0 {
		s.t.fail(extra, "%d delivered outputs the reference did not produce", extra)
	}
	return nil
}

// dropProbe measures what the rounds keep out of their way: a fresh daemon
// with GET /predictions attached takes probeBlocks blocks unpaced, and the
// hub drops each output the subscriber's full buffer cannot take, counting
// it in subscriber_drops. It returns the share dropped (hub.drop_share).
// How many are dropped follows the host's scheduling of the stream writer
// against the predictor, so it differs between runs of the same code; the
// drops are reported, not counted as failed. Every expected output must
// still arrive or be counted as dropped, and nothing unexpected may arrive:
// anything else is a wrong answer.
func (s *session) dropProbe() (float64, error) {
	if err := s.resetDataDir(); err != nil {
		return 0, err
	}
	d, _, err := startDaemon(s.bin, s.args)
	if err != nil {
		return 0, err
	}
	s.d = d
	st, err := s.attach()
	if err != nil {
		return 0, err
	}
	defer st.close()
	n := probeBlocks * s.w.unpacedLines
	ch, err := s.feed(0, n, true)
	if err != nil {
		return 0, err
	}
	conn, err := s.dial()
	if err != nil {
		return 0, err
	}
	_, err = conn.Write(ch.bytesFor(0, n))
	conn.Close()
	if err != nil {
		return 0, err
	}
	s.next = n
	if _, err := s.d.waitStatus(2*time.Millisecond, 60*time.Second, s.caughtUp()); err != nil {
		return 0, fmt.Errorf("drop probe: %w", err)
	}
	var drops, delivered int
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		sz, err := s.d.status()
		if err != nil {
			return 0, err
		}
		drops = int(sz.SubscriberDrops)
		s.mu.Lock()
		delivered = s.delivered
		s.mu.Unlock()
		if delivered+drops >= s.expected || time.Now().After(deadline) {
			break
		}
	}
	st.close()
	s.t.attempted += s.expected
	if unexplained := s.expected - delivered - drops; unexplained > 0 {
		s.t.fail(unexplained, "drop probe: %d expected outputs neither arrived nor counted as dropped", unexplained)
	}
	if s.m.extra > 0 {
		s.t.fail(s.m.extra, "drop probe: %d delivered outputs the reference did not produce", s.m.extra)
	}
	return float64(drops) / float64(max(s.expected, 1)), nil
}

// probeBlocks is how many unpaced blocks the drop probe writes in one go.
const probeBlocks = 3

// alerts reads the daemon's ranking, the top limit alerts (0 = all).
func (s *session) alerts(limit int) ([]arbiter.Alert, error) {
	url := "http://" + s.d.httpAddr + "/predictions?mode=alerts"
	if limit > 0 {
		url += "&limit=" + strconv.Itoa(limit)
	}
	resp, err := s.d.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	defer s.d.client.CloseIdleConnections()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out []arbiter.Alert
	dec := json.NewDecoder(resp.Body)
	for {
		var a arbiter.Alert
		if err := dec.Decode(&a); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
}

// crashRestart SIGKILLs the daemon once its journal holds every line and
// restarts it on the same directory: the restart's exec→/readyz time, WAL
// replay included, is the setup_s sample, and its recovered outputs must
// equal the reference.
func (s *session) crashRestart() error {
	if _, err := s.d.waitStatus(5*time.Millisecond, 30*time.Second, func(st *status) bool {
		var off uint64
		for _, sh := range st.Shards {
			off += sh.WALOffset
		}
		return off >= uint64(s.next)
	}); err != nil {
		return fmt.Errorf("journal never reached the line count: %w", err)
	}
	s.d.kill()
	s.d = nil
	d, setup, err := startDaemon(s.bin, s.args)
	if err != nil {
		return err
	}
	s.d = d
	s.t.setup = append(s.t.setup, setup.Seconds())
	return s.checkRecovered()
}

// checkRecovered reads /predictions?replay=recovered and matches it against
// every output the reference produced.
func (s *session) checkRecovered() error {
	st, err := s.d.status()
	if err != nil {
		return err
	}
	s.d.client.CloseIdleConnections()
	want := len(s.ref.outs)
	s.t.attempted += want
	if st.Recovery == nil {
		s.t.fail(want, "no recovery block after restart")
		return nil
	}
	m := newMatcher()
	for i, o := range s.ref.outs {
		m.expect(o.key, i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+s.d.httpAddr+"/predictions?replay=recovered", nil)
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	matched := 0
	for i := 0; i < st.Recovery.RecoveredOutputs; i++ {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("reading recovered outputs: %w", err)
		}
		var out predictor.Output
		if err := json.Unmarshal(line, &out); err != nil {
			m.extra++
			continue
		}
		if k, ok := keyOf(out); ok {
			if _, hit := m.match(k); hit {
				matched++
			}
		}
	}
	if miss := want - matched; miss > 0 || m.extra > 0 {
		s.t.fail(miss+m.extra, "recovered outputs: %d missing, %d unexpected (of %d)", miss, m.extra, want)
	}
	return nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// writeModel writes the XC30 chains and templates the daemon loads.
func writeModel(dir string) (chainsPath, tplPath string, err error) {
	chainsPath, tplPath = filepath.Join(dir, "chains.json"), filepath.Join(dir, "templates.json")
	var cb, tb bytes.Buffer
	if err := core.WriteChains(&cb, loggen.DialectXC30.Chains()); err != nil {
		return "", "", err
	}
	if err := core.WriteTemplates(&tb, loggen.DialectXC30.Inventory()); err != nil {
		return "", "", err
	}
	if err := os.WriteFile(chainsPath, cb.Bytes(), 0o644); err != nil {
		return "", "", err
	}
	return chainsPath, tplPath, os.WriteFile(tplPath, tb.Bytes(), 0o644)
}
