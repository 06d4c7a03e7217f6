package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// badmodDir is a self-contained one-file module with one known sentinelis
// violation (testdata/badmod), so the command tests drive the full
// load-analyze-report-exit path without typechecking the real module — the
// repo-wide clean run is covered by internal/analysis's TestRepoIsClean.
func badmodDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, badmodDir(t), &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"noalloc", "framecase", "sentinelis"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}

func TestFindingsExitOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(nil, badmodDir(t), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "bad.go:12: [sentinelis]") {
		t.Errorf("finding not reported as file:line: [name]:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "1 finding(s)") {
		t.Errorf("stderr missing finding count: %s", stderr.String())
	}
}

func TestOnlySubsetExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "noalloc,framecase"}, badmodDir(t), &stdout, &stderr); code != 0 {
		t.Fatalf("-only noalloc,framecase exited %d over a module whose only violation is sentinelis; stdout: %s",
			code, stdout.String())
	}
}

func TestOnlyUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, badmodDir(t), &stdout, &stderr); code != 2 {
		t.Fatalf("-only nosuch exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("stderr does not name the unknown analyzer: %s", stderr.String())
	}
}

func TestPatternExcludesFindings(t *testing.T) {
	// A pattern naming a subtree with no violations filters the finding out.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./nosuchdir/..."}, badmodDir(t), &stdout, &stderr); code != 0 {
		t.Fatalf("excluding pattern exited %d; stdout: %s", code, stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("excluding pattern still printed findings: %s", stdout.String())
	}
}

func TestPatternSelectsFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, badmodDir(t), &stdout, &stderr); code != 1 {
		t.Fatalf("./... exited %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "[sentinelis]") {
		t.Errorf("./... missed the violation:\n%s", stdout.String())
	}
}
