package shard

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/ring"
	"repro/internal/wal"
)

// openShards builds n journaled Local shards under t.TempDir(), started and
// opened the way the lifecycle layer boots them.
func openShards(t *testing.T, n int) []*Local {
	t.Helper()
	dir := t.TempDir()
	d := loggen.DialectXC30
	shards := make([]*Local, n)
	for i := range shards {
		mgr, err := predictor.NewManager(d.Chains(), d.Inventory(), predictor.Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = New(mgr, Config{
			Index:   i,
			Dir:     filepath.Join(dir, fmt.Sprintf("shard-%d", i)),
			Fsync:   wal.SyncOff,
			Logf:    t.Logf,
			Publish: func(predictor.Output) {},
		})
		shards[i].Start()
		if err := shards[i].Open(nil); err != nil {
			t.Fatal(err)
		}
	}
	return shards
}

// TestRouterPlacement: a Router fed batches of mixed sizes hands each shard
// exactly the lines its ring slot owns, in input order — counted in Stats,
// journaled in its WAL — and holds nothing back after Flush.
func TestRouterPlacement(t *testing.T) {
	log, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 5, Duration: 30 * time.Minute,
		Nodes: 12, Failures: 2, BenignPerMinute: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A malformed line still routes deterministically and is still journaled.
	lines := append(log.Lines(), "not-a-log-line")

	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			shards := openShards(t, n)
			r := NewRouter(shards)

			members := make([]string, n)
			for i := range members {
				members[i] = MemberName(i)
			}
			placement := ring.New(0, members...)
			want := make([][]string, n)
			for _, line := range lines {
				i := placement.LookupIndex(RouteKey(line))
				want[i] = append(want[i], line)
			}
			if n > 1 {
				for i, w := range want {
					if len(w) == 0 {
						t.Fatalf("shard %d owns no line; the placement check would be vacuous", i)
					}
				}
			}

			sizes := []int{1, 7, 64, 2, 256, 1, 33}
			for off, k := 0, 0; off < len(lines); k++ {
				end := min(off+sizes[k%len(sizes)], len(lines))
				// The pump reuses its batch slice; so does this feed.
				batch := append(make([]string, 0, end-off), lines[off:end]...)
				r.ProcessBatch(batch)
				clear(batch)
				off = end
			}
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}

			for i, sh := range shards {
				if got := sh.Stats().Lines; got != int64(len(want[i])) {
					t.Errorf("shard %d: Stats().Lines = %d, want %d", i, got, len(want[i]))
				}
				if p := r.Pending(i); p != 0 {
					t.Errorf("shard %d: Pending = %d after Flush", i, p)
				}
				var journaled []string
				if err := sh.WALReplay(1, func(_ uint64, rec []byte) error {
					journaled = append(journaled, string(rec))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if len(journaled) != len(want[i]) {
					t.Errorf("shard %d: %d WAL records, want %d", i, len(journaled), len(want[i]))
					continue
				}
				for j := range journaled {
					if journaled[j] != want[i][j] {
						t.Errorf("shard %d: WAL record %d = %q, want %q", i, j+1, journaled[j], want[i][j])
						break
					}
				}
			}

			r.FinishIngest(true)
			for _, sh := range shards {
				if err := sh.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
