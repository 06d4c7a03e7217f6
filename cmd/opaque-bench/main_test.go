package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunList checks that -list enumerates every experiment without running
// any of them.
func TestRunList(t *testing.T) {
	var out, diag strings.Builder
	if err := run([]string{"-list"}, &out, &diag); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	got := out.String()
	for _, id := range []string{"E1 ", "E10", "E11"} {
		if !strings.Contains(got, id) {
			t.Errorf("-list output missing %q:\n%s", id, got)
		}
	}
	if strings.Contains(got, "running ") {
		t.Error("-list must not execute experiments")
	}
}

// TestRunFlagErrors checks flag and argument validation paths, including
// that parse diagnostics go to the diagnostic writer, not the table stream.
func TestRunFlagErrors(t *testing.T) {
	var out, diag strings.Builder
	if err := run([]string{"-scale", "enormous"}, &out, &diag); err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Errorf("bad scale: err = %v", err)
	}
	if err := run([]string{"-exp", "E99"}, &out, &diag); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("bad experiment: err = %v", err)
	}
	out.Reset()
	diag.Reset()
	if err := run([]string{"-bogus-flag"}, &out, &diag); !errors.Is(err, errUsage) {
		t.Errorf("undefined flag: err = %v, want errUsage", err)
	}
	if out.Len() != 0 {
		t.Errorf("parse diagnostics leaked onto the table stream: %q", out.String())
	}
	if !strings.Contains(diag.String(), "bogus-flag") {
		t.Errorf("diagnostic stream missing parse error: %q", diag.String())
	}
}

// TestRunSingleExperimentWithCSV is the tiny end-to-end smoke run: one fast
// experiment at small scale, rendered to the writer and exported as CSV.
func TestRunSingleExperimentWithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	dir := t.TempDir()
	var out, diag strings.Builder
	if err := run([]string{"-exp", "E2", "-scale", "small", "-csv", dir}, &out, &diag); err != nil {
		t.Fatalf("run -exp E2: %v", err)
	}
	if !strings.Contains(out.String(), "== E2") {
		t.Errorf("output missing rendered E2 table:\n%s", out.String())
	}
	csv, err := os.ReadFile(filepath.Join(dir, "e2.csv"))
	if err != nil {
		t.Fatalf("reading exported CSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV export has %d lines, want header plus rows", len(lines))
	}
}

// TestRunSeveralExperiments runs two experiments through the comma-separated
// -exp form, with a space after the comma, and checks both tables render in
// the order given.
func TestRunSeveralExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	var out, diag strings.Builder
	if err := run([]string{"-exp", "E2, E3", "-scale", "small"}, &out, &diag); err != nil {
		t.Fatalf("run -exp E2,E3: %v", err)
	}
	got := out.String()
	e2, e3 := strings.Index(got, "== E2"), strings.Index(got, "== E3")
	if e2 < 0 || e3 < 0 || e2 > e3 {
		t.Errorf("want the E2 table then the E3 table, got:\n%s", got)
	}
}
