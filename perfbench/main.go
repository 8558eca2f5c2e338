// Command perfbench is the repository's end-to-end benchmark: it builds
// nothing itself (run.sh builds cmd/aarohid and this program), generates a
// workload from internal/loggen with --seed, runs aarohid as a child process
// on loopback and drives it from this single process, checks every output
// against an in-process reference predictor, and prints one JSON result as
// its last line.
//
//	perfbench --workload storm|fleet|recover --seed N --seconds S --trace 0|1 \
//	          -daemon path/to/aarohid [-root .]
//	perfbench -spread results.ndjson
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics of a traced in-process assembly of the daemon's layers (see
// trace.go) and writes its spans under .bench_build/spans/.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxLateP99 is the generator's lateness bound: a run whose open-loop sender
// fell further behind its schedule than this at p99 is invalid, because its
// latency samples then measure the generator rather than the daemon.
const maxLateP99 = 25.0 // ms

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "storm, fleet or recover")
		seed    = flag.Int64("seed", 1, "workload generator seed")
		seconds = flag.Int("seconds", 16, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1 = per-layer traced run")
		root    = flag.String("root", ".", "repository root (working files go under <root>/.bench_build)")
		bin     = flag.String("daemon", "", "aarohid binary")
		spread  = flag.String("spread", "", "report each metric's spread over the result lines in this file, then exit")
	)
	flag.Parse()
	if *spread != "" {
		if err := spreadReport(*spread); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		live.killAll()
		fmt.Fprintln(os.Stderr, "perfbench: interrupted by", sig)
		os.Exit(1)
	}()
	err := run(*name, *seed, *seconds, *trace == 1, *root, *bin)
	live.killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, root, bin string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if bin == "" || seconds < 1 {
		return fmt.Errorf("-daemon and a positive --seconds are required")
	}
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	fp := fingerprint(root)
	fp["workload"], fp["seed"], fp["why"], fp["trace"] = w.name, seed, w.why, traced
	hdr, _ := json.Marshal(map[string]any{"run": fp})
	fmt.Println(string(hdr))

	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	corp, err := newCorpus(w.log, seed)
	if err != nil {
		return err
	}
	t := &tally{}
	metrics, err := measure(w, corp, t, bin, work, time.Duration(seconds)*time.Second, traced)
	if err != nil {
		return err
	}
	if traced {
		lm, err := traceRun(w, corp, seed, root, work, metrics)
		if err != nil {
			return err
		}
		lm["ref.lines_per_s"] = metric{float64(t.refLines) / t.refDur.Seconds(), "1/s"}
		// Reported beside the layers, not gated (see latencyMetrics).
		for _, name := range latencyMetrics {
			lm[name] = metrics[name]
		}
		lm["hub.drop_share"] = metrics["hub.drop_share"]
		metrics = lm
	} else {
		for _, name := range latencyMetrics {
			delete(metrics, name)
		}
	}

	if err := checkNames(root, traced, metrics); err != nil {
		return err
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	// The check's outcome, ungated, for every run: the error rate, and how
	// many stream outputs the hub shed (subscriber_drops) in the rounds.
	checks, _ := json.Marshal(map[string]any{"checks": map[string]any{
		"error_rate":       float64(t.failed) / float64(max(t.attempted, 1)),
		"wrong":            t.wrong,
		"subscriber_drops": t.drops,
		"streamed":         t.streamed,
		"lines":            t.lines,
	}})
	fmt.Println(string(checks))
	res := result{
		Correct:   t.wrong == 0 && t.valid(),
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// latencyMetrics are measured on every run but reported only by traced
// runs, ungated. On the shared 2-vCPU VM this benchmark was tuned on, a
// spinning thread sees 2–12 ms scheduling gaps about 15 times a second and
// steal time came and went for minutes at a time. The p99s sit in those
// stalls. The p50s (prediction and alert poll) followed the host's speed
// even as the best of four rounds: over ten runs of the same code their
// quartile spread reached 0.33, past the 0.25 any bound may allow.
var latencyMetrics = []string{
	"pred_p50_ms.low", "pred_p50_ms.high", "pred_p99_ms.low", "pred_p99_ms.high",
	"alerts_p50_ms", "alerts_p99_ms", "loadgen.late_p99_ms",
}

// rounds is how many independent daemon lifetimes one run measures. Each
// round starts a fresh daemon and runs every phase once; metrics pool the
// rounds' samples, so a slow stretch of a shared host lands in a few samples
// of every metric instead of in all samples of one.
const rounds = 4

// minPreds is the fewest predictions each round's open-loop phase yields,
// so the pooled samples of a run always support a p99.
const minPreds = 300

// alertPolls is the poll count per run: enough for a p99 under the
// percentile rule (10 samples beyond it).
const alertPolls = 1000

// measure runs the workload's rounds and returns the end-to-end metrics
// (plus the latency figures, which only traced runs report). A traced run
// ends with the hub's drop probe (hub.drop_share).
func measure(w *workload, corp *corpus, t *tally, bin, work string, budget time.Duration, traced bool) (map[string]metric, error) {
	chains, tpl, err := writeModel(work)
	if err != nil {
		return nil, err
	}
	args := []string{"-chains", chains, "-templates", tpl, "-overflow", "block",
		"-shards", strconv.Itoa(w.shards)}
	dataDir := filepath.Join(work, "data")
	if w.wal {
		args = append(args, "-data-dir", dataDir, "-fsync", "batch")
	}
	if w.arbiter {
		args = append(args, "-arbiter")
	}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		ref, err := newReference(w.shards, w.arbiter)
		if err != nil {
			return nil, err
		}
		s := &session{w: w, bin: bin, args: args, dataDir: dataDir, corp: corp, ref: ref, m: newMatcher(), t: t}
		err = s.round(budget / rounds)
		if s.d != nil {
			s.d.kill()
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r+1, err)
		}
		t.lines += s.next
		t.refLines += ref.lines
		t.refDur += ref.predDur
		type latencySet struct {
			round  *samples
			pooled *samples
			p50s   *[]float64
		}
		sets := []latencySet{{&s.predLow, &t.predLow, &t.roundLow}, {&s.predHigh, &t.predHigh, &t.roundHigh}}
		if w.arbiter {
			sets = append(sets, latencySet{&s.alertsLat, &t.alertsLat, &t.roundAlerts})
		} else {
			t.roundAlerts = append(t.roundAlerts, 0) // no arbiter: nothing to poll
		}
		for _, l := range sets {
			p50, err := l.round.quantile(0.5)
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", r+1, err)
			}
			*l.p50s = append(*l.p50s, finite(p50))
			l.pooled.merge(l.round)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %6.2fs round %d: setup %.3fs, p50 low %.3f high %.3f alerts %.3f ms\n",
			time.Since(t0).Seconds(), r+1, t.setup[len(t.setup)-1], t.roundLow[r], t.roundHigh[r], t.roundAlerts[r])
	}
	if len(t.unpaced) == 0 {
		return nil, fmt.Errorf("no round finished its unpaced phase")
	}
	fmt.Fprintf(os.Stderr, "perfbench: lines/s per round %.0f, quartile spread %.3f\n", t.unpaced, quartileSpread(t.unpaced))

	// setup_s and rss_peak_mb are medians over the rounds, which a run
	// spreads over its whole length: a slow stretch of a shared host moves
	// one or two rounds, not the median. lines_per_s is the best round's:
	// on the 2-vCPU VM this benchmark was tuned on, other tenants' load came
	// in stretches that slowed every round of a run by up to a third, and
	// over ten runs the best round moved half as much as the median round.
	// The rounds' CPU time is pooled. The p50 latencies, reported ungated,
	// are the best round's too.
	m := map[string]metric{
		"setup_s":          {median(t.setup), "s"},
		"lines_per_s":      {slices.Max(t.unpaced), "1/s"},
		"cpu_ns_per_line":  {float64(t.cpu.Nanoseconds()) / float64(t.cpuLines), "ns"},
		"rss_peak_mb":      {median(t.rss), "MiB"},
		"pred_p50_ms.low":  {slices.Min(t.roundLow), "ms"},
		"pred_p50_ms.high": {slices.Min(t.roundHigh), "ms"},
		"alerts_p50_ms":    {slices.Min(t.roundAlerts), "ms"},
		"alerts_p99_ms":    {0, "ms"}, // replaced below on arbiter workloads
	}
	type tail struct {
		name string
		set  *samples
	}
	tails := []tail{{"pred_p99_ms.low", &t.predLow}, {"pred_p99_ms.high", &t.predHigh}, {"loadgen.late_p99_ms", &t.late.ms}}
	if w.arbiter {
		tails = append(tails, tail{"alerts_p99_ms", &t.alertsLat})
	}
	for _, q := range tails {
		v, err := q.set.quantile(0.99)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		m[q.name] = metric{finite(v), "ms"}
		fmt.Fprintf(os.Stderr, "perfbench: %s = %.4f ms (n=%d, lost=%d, highest reportable p%g)\n",
			q.name, v, q.set.n(), q.set.lost, highestPercentile(q.set.n()))
	}
	if traced {
		ref, err := newReference(w.shards, w.arbiter)
		if err != nil {
			return nil, err
		}
		s := &session{w: w, bin: bin, args: args, dataDir: dataDir, corp: corp, ref: ref, m: newMatcher(), t: t}
		share, err := s.dropProbe()
		if s.d != nil {
			s.d.kill()
		}
		if err != nil {
			return nil, err
		}
		m["hub.drop_share"] = metric{share, "ratio"}
		fmt.Fprintf(os.Stderr, "perfbench: drop probe: hub dropped %.4f of %d outputs\n", share, s.expected)
	}
	return m, nil
}

// lostMs stands in for +Inf, which JSON cannot carry: the quantile fell on a
// prediction that never arrived, "slower than any limit". Losses are never
// silent: finalCheck counts every missing output in failed.
const lostMs = 1e6

func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return lostMs
	}
	return v
}

// valid reports whether the generator kept its schedule.
func (t *tally) valid() bool {
	late, err := t.late.ms.quantile(0.99)
	if err != nil || late > maxLateP99 {
		fmt.Fprintf(os.Stderr, "perfbench: invalid run: generator p99 lateness %.3f ms (bound %.1f ms)\n", late, maxLateP99)
		return false
	}
	return true
}

// checkNames fails the run when the metrics it would print differ from the
// list BENCHMARK.json declares for this mode, so the two cannot drift.
func checkNames(root string, traced bool, metrics map[string]metric) error {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := decl.EndToEnd
	if traced {
		list = decl.PerLayer
	}
	want := map[string]bool{}
	for _, m := range list {
		want[m.Name] = true
		if _, ok := metrics[m.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which this run does not report", m.Name)
		}
	}
	for name := range metrics {
		if !want[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// spreadReport reads result lines (the last stdout line of each run, one
// run per line; other lines are skipped) and prints, for each metric, the
// median over the runs and the quartile spread as a share of it: the figure
// a metric's bound in BENCHMARK.json must stay above.
func spreadReport(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	runs, wrong := 0, 0
	for _, line := range strings.Split(string(b), "\n") {
		var r result
		if json.Unmarshal([]byte(line), &r) != nil || r.Metrics == nil {
			continue
		}
		runs++
		if !r.Correct {
			wrong++
		}
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	if runs == 0 {
		return fmt.Errorf("%s holds no result lines", path)
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%d runs, %d not correct\n", runs, wrong)
	for _, name := range names {
		v := vals[name]
		fmt.Printf("%-32s n=%-3d median %-14.6g spread %.4f\n", name, len(v), median(v), quartileSpread(v))
	}
	return nil
}

// fingerprint records the machine and code a result came from.
func fingerprint(root string) map[string]any {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"git_rev":    gitRev(root),
		"src_sha256": sourceHash(root),
	}
	return fp
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// gitRev reads HEAD from <root>/.git without running git (the benchmark may
// run from an export that is not a repository: then "none").
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod under root (skipping dot
// directories), identifying the code under test with or without git.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
