package vet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites the golden files under testdata/ instead of
// comparing against them: `go test ./internal/vet -update`, or
// UPDATE_GOLDEN=1 as for the serve goldens.
var updateGolden = flag.Bool("update", os.Getenv("UPDATE_GOLDEN") != "", "rewrite golden files under testdata/")

// goldenReport covers every rendering feature: all three severities, a
// finding with related elements, and one without.
func goldenReport() *Report {
	return &Report{Findings: []Finding{
		{
			Check:    "chains",
			Severity: Error,
			Subject:  "chain fan-out",
			Message:  "phrase 134 never appears in the inventory",
			Related:  []string{"template 134", "template 17"},
		},
		{
			Check:    "deltat",
			Severity: Warning,
			Subject:  "chain dvs-timeout",
			Message:  "ΔT 30s is shorter than the chain's own span",
		},
		{
			Check:    "overlap",
			Severity: Info,
			Subject:  "template 201",
			Message:  "shadowed by template 7 on every input",
			Related:  []string{"template 7"},
		},
	}}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/vet -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.txt", buf.Bytes())
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.json", buf.Bytes())
}

func TestWriteTextEmptyGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Report{}).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_empty.txt", buf.Bytes())
}

func TestWriteJSONEmptyGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Report{}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_empty.json", buf.Bytes())
}
