package rex

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func mustSet(t *testing.T, patterns ...string) *Set {
	t.Helper()
	s, err := CompileSet(patterns)
	if err != nil {
		t.Fatalf("CompileSet(%q): %v", patterns, err)
	}
	return s
}

func TestIntersects(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want bool
	}{
		{"disjoint literals", "abc", "abd", false},
		{"disjoint prefixed wildcards", `DVS: .*`, `LNet: .*`, false},
		{"identical", "abc", "abc", true},
		{"nested", `LNet: .*`, `LNet: critical .*`, true},
		{"partial overlap", `a.*b`, `.*cb`, true},
		{"wildcard vs literal", `.*`, "x", true},
		{"class overlap", `[ab]x`, `[bc]x`, true},
		{"class disjoint", `[ab]x`, `[cd]x`, false},
		{"suffix wildcards disjoint heads", `err: .*`, `warn: .*`, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSet(t, tc.a, tc.b)
			w, ok := s.Intersects(0, 1)
			if ok != tc.want {
				t.Fatalf("Intersects(%q, %q) = (%q, %v), want ok=%v", tc.a, tc.b, w, ok, tc.want)
			}
			if !ok {
				return
			}
			// The witness must be matched exactly by both patterns.
			for pi, p := range []string{tc.a, tc.b} {
				re := MustCompile(p)
				if !re.MatchString(w) {
					t.Errorf("witness %q not matched by pattern %d %q", w, pi, p)
				}
			}
		})
	}
}

func TestIntersectsWitnessShortest(t *testing.T) {
	s := mustSet(t, `ab.*z`, `.*z`)
	w, ok := s.Intersects(0, 1)
	if !ok {
		t.Fatal("expected overlap")
	}
	if len(w) != 3 { // "abz" is the shortest common string
		t.Errorf("witness %q, want a 3-byte witness like \"abz\"", w)
	}
}

func TestCovers(t *testing.T) {
	tests := []struct {
		name   string
		a, b   string
		covers bool
	}{
		{"wildcard covers literal", `.*`, "abc", true},
		{"prefix wildcard covers refinement", `LNet: .*`, `LNet: critical .*`, true},
		{"identical covers", "abc", "abc", true},
		{"literal does not cover wildcard", "abc", `ab.*`, false},
		{"partial overlap is not coverage", `a.*b`, `.*cb`, false},
		{"disjoint is not coverage", "abc", "abd", false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSet(t, tc.a, tc.b)
			counter, covers := s.Covers(0, 1)
			if covers != tc.covers {
				t.Fatalf("Covers(%q, %q) = (%q, %v), want %v", tc.a, tc.b, counter, covers, tc.covers)
			}
			if covers {
				return
			}
			// The counterexample is in L(b) \ L(a).
			if !MustCompile(tc.b).MatchString(counter) {
				t.Errorf("counterexample %q not matched by %q", counter, tc.b)
			}
			if MustCompile(tc.a).MatchString(counter) {
				t.Errorf("counterexample %q matched by %q, should not be", counter, tc.a)
			}
		})
	}
}

func TestIntersectsWitnessPrintable(t *testing.T) {
	// Patterns over printable text should get printable witnesses.
	s := mustSet(t, `DVS: .* down`, `DVS: node5 .*`)
	w, ok := s.Intersects(0, 1)
	if !ok {
		t.Fatal("expected overlap")
	}
	for _, r := range w {
		if r < 0x20 || r > 0x7e {
			t.Fatalf("witness %q contains non-printable byte %#x", w, r)
		}
	}
	if !strings.HasPrefix(w, "DVS: ") {
		t.Errorf("witness %q does not start with the shared literal prefix", w)
	}
}

func TestDeadStates(t *testing.T) {
	// Healthy pattern sets have no dead states: every subset-construction
	// state is a viable prefix of some pattern.
	s := mustSet(t, `abc.*`, `ab`, `[xy]z`)
	if dead := s.DeadStates(); len(dead) != 0 {
		t.Errorf("DeadStates = %v, want none", dead)
	}
}

// oracleSearch is the reference product search: a BFS whose seen/prev sets
// are Go maps keyed by product pair. productSearch must return exactly its
// (witness, ok) — same bytes, not merely another shortest string.
func oracleSearch(a, b *dfa, wantB bool) ([]byte, bool) {
	type pair struct{ a, b int32 }
	type step struct {
		from pair
		c    byte
	}
	const sink int32 = -1
	accepts := func(p pair) bool {
		if a.states[p.a].accept == noMatch {
			return false
		}
		inB := p.b != sink && b.states[p.b].accept != noMatch
		return inB == wantB
	}
	start := pair{0, 0}
	if accepts(start) {
		return []byte{}, true
	}
	prev := map[pair]step{}
	seen := map[pair]bool{start: true}
	queue := []pair{start}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, c := range searchByteOrder {
			na := a.states[p.a].next[c]
			if na == noMatch {
				continue
			}
			nb := sink
			if p.b != sink {
				nb = b.states[p.b].next[c]
			}
			np := pair{na, nb}
			if seen[np] {
				continue
			}
			seen[np] = true
			prev[np] = step{p, c}
			if accepts(np) {
				var rev []byte
				for end := np; end != start; end = prev[end].from {
					rev = append(rev, prev[end].c)
				}
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev, true
			}
			queue = append(queue, np)
		}
	}
	return nil, false
}

// pairAnswer is one ordered pair's Intersects and Covers results.
type pairAnswer struct {
	i, j      int
	witness   string
	intersect bool
	counter   string
	covers    bool
}

// oracleAnswers answers every ordered pair of distinct patterns with
// oracleSearch over automata built independently of the Set's cache.
func oracleAnswers(t testing.TB, patterns []string) []pairAnswer {
	t.Helper()
	dfas := make([]*dfa, len(patterns))
	for i, p := range patterns {
		ast, err := parsePattern(p)
		if err != nil {
			t.Fatalf("pattern %q: %v", p, err)
		}
		dfas[i] = buildDFA(buildNFA([]*node{ast}))
	}
	var out []pairAnswer
	for i := range patterns {
		for j := range patterns {
			if i == j {
				continue
			}
			w, ok := oracleSearch(dfas[i], dfas[j], true)
			c, notCovered := oracleSearch(dfas[j], dfas[i], false)
			out = append(out, pairAnswer{i: i, j: j,
				witness: string(w), intersect: ok,
				counter: string(c), covers: !notCovered})
		}
	}
	return out
}

// setAnswer is pairAnswer computed by the Set under test.
func setAnswer(s *Set, i, j int) pairAnswer {
	w, ok := s.Intersects(i, j)
	c, covers := s.Covers(i, j)
	return pairAnswer{i: i, j: j, witness: w, intersect: ok, counter: c, covers: covers}
}

// AssertOracleAgreement checks that Intersects and Covers on a Set compiled
// from patterns return byte-identical answers to the map-based oracle for
// every ordered pair. Exported for the dialect-inventory test, which lives in
// package rex_test because loggen imports rex.
func AssertOracleAgreement(t *testing.T, patterns []string) {
	t.Helper()
	s, err := CompileSet(patterns)
	if err != nil {
		t.Fatalf("CompileSet: %v", err)
	}
	for _, want := range oracleAnswers(t, patterns) {
		if got := setAnswer(s, want.i, want.j); got != want {
			t.Errorf("patterns %q, %q:\n got  %+v\n want %+v",
				patterns[want.i], patterns[want.j], got, want)
		}
	}
}

// templatePattern mirrors lexgen.TemplatePattern (which this package cannot
// import): literal text with each '*' a wildcard.
func templatePattern(template string) string {
	parts := strings.Split(template, "*")
	for i, p := range parts {
		parts[i] = QuoteMeta(p)
	}
	return strings.Join(parts, ".*")
}

// randomTemplates draws n '*'-wildcard templates from a small alphabet, so
// shared prefixes, nested wildcards and regex metacharacters (quoted) are
// common and most pairs either overlap or narrowly miss.
func randomTemplates(rng *rand.Rand, n int) []string {
	const alphabet = "ab: .["
	out := make([]string, n)
	for k := range out {
		var sb strings.Builder
		for l := 1 + rng.Intn(8); l > 0; l-- {
			if rng.Intn(4) == 0 {
				sb.WriteByte('*')
			} else {
				sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
		}
		out[k] = templatePattern(sb.String())
	}
	return out
}

func TestProductSearchMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 40; round++ {
		AssertOracleAgreement(t, randomTemplates(rng, 8))
	}
}

// TestSetConcurrentAnalysis runs Intersects/Covers on one fresh Set from 8
// goroutines, so the lazy per-pattern builds race each other; every answer
// must still equal the oracle's. Run under -race.
func TestSetConcurrentAnalysis(t *testing.T) {
	patterns := randomTemplates(rand.New(rand.NewSource(7)), 12)
	want := oracleAnswers(t, patterns)
	s := mustSet(t, patterns...)
	const goroutines = 8
	errs := make(chan string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the pairs from a different offset, so
			// first uses of a pattern land on different goroutines.
			for k := range want {
				w := want[(k+g*len(want)/goroutines)%len(want)]
				if got := setAnswer(s, w.i, w.j); got != w {
					errs <- fmt.Sprintf("goroutine %d: got %+v, want %+v", g, got, w)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
