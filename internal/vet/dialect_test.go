package vet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/loggen"
)

// vetDialects are the production-system dialects whose full models (every
// template of the inventory plus the dialect's failure chains) the daemon
// is benchmarked and demonstrated on.
var vetDialects = []*loggen.Dialect{
	loggen.DialectXC30, loggen.DialectXE6, loggen.DialectXC40,
	loggen.DialectXK, loggen.DialectBGP,
}

func dialectModel(d *loggen.Dialect) Model {
	return Model{Chains: d.Chains(), Templates: d.Inventory()}
}

// TestRunDialectReportsGolden pins the complete text report of every
// dialect model: each finding, its severity, and every overlap witness the
// product-automaton search constructs. A change to the language analysis
// that alters any witness byte shows up here.
func TestRunDialectReportsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, d := range vetDialects {
		rep, err := Run(dialectModel(d), Config{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		fmt.Fprintf(&buf, "== %s ==\n", d.Name)
		if err := rep.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "dialects.txt", buf.Bytes())
}

func BenchmarkRun(b *testing.B) {
	for _, d := range vetDialects {
		m := dialectModel(d)
		b.Run(strings.NewReplacer(" ", "", "/", "").Replace(d.Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(m, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
