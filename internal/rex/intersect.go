package rex

// Language analysis over compiled pattern sets: pairwise intersection and
// containment via the product construction, and dead-state detection. These
// back the aarohivet scanner-overlap check — two templates whose languages
// overlap are resolved by priority online, so the loser may never produce its
// token; the product DFA yields a concrete witness string for the report.

import (
	"slices"
	"sync"
)

// searchByteOrder ranks bytes for witness construction: printable ASCII
// first (space last among them, so words form before padding), then the
// rest, so reported witnesses read like log text whenever possible.
var searchByteOrder = func() [256]byte {
	var order [256]byte
	n := 0
	for b := '!'; b <= '~'; b++ {
		order[n] = byte(b)
		n++
	}
	order[n] = ' '
	n++
	for b := 0; b < 256; b++ {
		if (b >= '!' && b <= '~') || b == ' ' {
			continue
		}
		order[n] = byte(b)
		n++
	}
	return order
}()

// patternDFA returns pattern i of the set compiled alone, building it on
// first use. The overlap analysis asks about every pair of patterns, so each
// pattern's automaton is built once per Set rather than once per question;
// the Once makes the lazy build safe for concurrent Intersects/Covers
// callers. The pattern parsed once already in CompileSet, so a parse failure
// here is impossible.
func (s *Set) patternDFA(i int) *dfa {
	p := &s.single[i]
	p.once.Do(func() {
		ast, err := parsePattern(s.patterns[i])
		if err != nil {
			panic("rex: pattern re-parse failed: " + err.Error())
		}
		p.d = buildDFA(buildNFA([]*node{ast}))
	})
	return p.d
}

// lazyDFA is one pattern's standalone automaton, built by patternDFA.
type lazyDFA struct {
	once sync.Once
	d    *dfa
}

// productSearch runs a BFS over the product of a and b for the shortest
// byte string that a accepts and whose membership in b equals wantB
// (wantB=true: string in L(a) ∩ L(b); wantB=false: string in L(a) \ L(b)).
//
// Product states live in flat arrays indexed by pa*cols + pb+1, where cols
// is len(b.states)+1 and column 0 is b's implicit dead (sink) state, which
// the product keeps traversable so the complement language stays visible.
// from holds each reached state's BFS predecessor (-1: not reached yet) and
// via the byte that led to it. Bytes are tried in searchByteOrder and the
// queue is FIFO, so the witness is the first shortest string in that order.
func productSearch(a, b *dfa, wantB bool) ([]byte, bool) {
	cols := int32(len(b.states)) + 1
	accepts := func(pa, pb int32) bool {
		if a.states[pa].accept == noMatch {
			return false
		}
		inB := pb != noMatch && b.states[pb].accept != noMatch
		return inB == wantB
	}

	const start = 1 // the product of both start states: (0, 0)
	if accepts(0, 0) {
		return []byte{}, true
	}
	from := make([]int32, int32(len(a.states))*cols)
	for i := range from {
		from[i] = -1
	}
	via := make([]byte, len(from))
	from[start] = start
	queue := []int32{start}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		pa, pb := p/cols, p%cols-1
		for _, c := range searchByteOrder {
			na := a.states[pa].next[c]
			if na == noMatch {
				// a's dead state can never reach an accept of a; prune.
				continue
			}
			nb := int32(noMatch)
			if pb != noMatch {
				nb = b.states[pb].next[c]
			}
			np := na*cols + nb + 1
			if from[np] >= 0 {
				continue
			}
			from[np] = p
			via[np] = c
			if accepts(na, nb) {
				var rev []byte
				for ; np != start; np = from[np] {
					rev = append(rev, via[np])
				}
				slices.Reverse(rev)
				return rev, true
			}
			queue = append(queue, np)
		}
	}
	return nil, false
}

// Intersects reports whether the languages of patterns i and j overlap,
// returning a shortest witness string matched by both. Priority resolution
// makes overlap operationally significant: every input in the intersection
// is claimed by one of the two patterns only (the longest match, then the
// lowest ID), so the other never sees it.
func (s *Set) Intersects(i, j int) (witness string, ok bool) {
	w, ok := productSearch(s.patternDFA(i), s.patternDFA(j), true)
	if !ok {
		return "", false
	}
	return string(w), true
}

// Covers reports whether pattern i's language contains pattern j's: every
// string j matches, i matches too. Since the scanner resolves equal-length
// matches toward the lower ID, Covers(i, j) with i < j means pattern j can
// never win a match — it is fully shadowed. When i does not cover j, counter
// is a shortest string matched by j but not by i.
func (s *Set) Covers(i, j int) (counter string, covers bool) {
	w, ok := productSearch(s.patternDFA(j), s.patternDFA(i), false)
	if !ok {
		return "", true
	}
	return string(w), false
}

// DeadStates returns the states of the combined DFA from which no accepting
// state is reachable (the implicit error sink is not counted). The subset
// construction only creates states for viable pattern prefixes, so a
// non-empty result indicates a defective pattern (e.g. an empty character
// class) whose matches can never complete.
func (s *Set) DeadStates() []int {
	n := len(s.d.states)
	// Reverse reachability from accepting states.
	rev := make([][]int32, n)
	for si := range s.d.states {
		for b := 0; b < 256; b++ {
			if t := s.d.states[si].next[b]; t != noMatch {
				rev[t] = append(rev[t], int32(si))
			}
		}
	}
	alive := make([]bool, n)
	var stack []int32
	for si, st := range s.d.states {
		if st.accept != noMatch {
			alive[si] = true
			stack = append(stack, int32(si))
		}
	}
	for len(stack) > 0 {
		si := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[si] {
			if !alive[p] {
				alive[p] = true
				stack = append(stack, p)
			}
		}
	}
	var dead []int
	for si := range alive {
		if !alive[si] {
			dead = append(dead, si)
		}
	}
	return dead
}
