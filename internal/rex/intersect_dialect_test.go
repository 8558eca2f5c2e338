package rex_test

import (
	"testing"

	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/rex"
)

// TestProductSearchMatchesOracleDialects checks every ordered template pair
// of the production dialect inventories — the pairs the vet overlap check
// asks about — against the map-based oracle.
func TestProductSearchMatchesOracleDialects(t *testing.T) {
	for _, d := range []*loggen.Dialect{
		loggen.DialectXC30, loggen.DialectXE6, loggen.DialectXC40,
		loggen.DialectXK, loggen.DialectBGP,
	} {
		t.Run(d.Name, func(t *testing.T) {
			inv := d.Inventory()
			patterns := make([]string, len(inv))
			for i, tpl := range inv {
				patterns[i] = lexgen.TemplatePattern(tpl.Pattern)
			}
			rex.AssertOracleAgreement(t, patterns)
		})
	}
}
