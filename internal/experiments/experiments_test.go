package experiments

import (
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", Columns: []string{"a", "bee"}}
	tb.AddRow(1, 2.34567)
	tb.AddRow("x", "y")
	tb.AddNote("a note %d", 7)
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "2.346") || !strings.Contains(out, "a note 7") {
		t.Errorf("rendered table missing content:\n%s", out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bee\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if !strings.Contains(csv, "x,y") {
		t.Errorf("CSV missing row: %q", csv)
	}
}

func TestAllAndByID(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("expected 11 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if r.ID() == "" || r.Description() == "" {
			t.Errorf("experiment %T missing metadata", r)
		}
		if seen[r.ID()] {
			t.Errorf("duplicate experiment id %s", r.ID())
		}
		seen[r.ID()] = true
	}
	if _, err := ByID("e5"); err != nil {
		t.Errorf("ByID should be case-insensitive: %v", err)
	}
	if _, err := ByID("E42"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

// The individual experiment runners are exercised end-to-end (at Small scale)
// by the benchmark harness in the repository root; here we run the two
// cheapest ones to keep unit-test time low while still covering the runner
// plumbing and the expectations encoded in their notes.

func TestE2BreachRuns(t *testing.T) {
	tables, err := E2Breach{}.Run(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("unexpected tables: %+v", tables)
	}
	// Column 2 (nominal) must equal column 3 (measured uniform) on every row.
	for _, row := range tables[0].Rows {
		if row[2] != row[3] {
			t.Errorf("nominal %s != measured uniform %s", row[2], row[3])
		}
	}
}

func TestE4SSMDRuns(t *testing.T) {
	tables, err := E4SSMD{}.Run(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("unexpected tables: %+v", tables)
	}
	if len(tables[0].Columns) != 6 {
		t.Errorf("E4 columns = %d, want 6", len(tables[0].Columns))
	}
}

func TestHelperFunctions(t *testing.T) {
	if got := itoa(0); got != "0" {
		t.Errorf("itoa(0) = %q", got)
	}
	if got := itoa(-42); got != "-42" {
		t.Errorf("itoa(-42) = %q", got)
	}
	if got := itoa(1234); got != "1234" {
		t.Errorf("itoa(1234) = %q", got)
	}
	if got := meanFloat([]float64{1, 3}); got != 2 {
		t.Errorf("meanFloat = %v", got)
	}
	if got := userName(3); got != "user-3" {
		t.Errorf("userName = %q", got)
	}
	if networkNodes(Small, 10, 20) != 10 || networkNodes(Full, 10, 20) != 20 {
		t.Error("networkNodes scale selection wrong")
	}
	if queries(Small, 1, 2) != 1 || queries(Full, 1, 2) != 2 {
		t.Error("queries scale selection wrong")
	}
}
