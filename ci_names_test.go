package opaque

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests fails when a -run or -fuzz pattern of a
// `go test` command in .github/workflows/ci.yml has an alternative that
// names no Test or Fuzz function in the packages the command lists. `go
// test` runs nothing for such an alternative and still passes, so without
// this check a renamed test silently empties the CI step that names it.
// The run-nothing pattern '^$' is exempt. CI runs it beside
// TestDocIntraRepoLinks in the docs step.
func TestCIRunPatternsNameTests(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(run|fuzz)[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)
	checked := 0
	for n, line := range strings.Split(string(data), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var flags, patterns []string
		for _, m := range flag.FindAllStringSubmatch(cmd, -1) {
			if pattern := m[2] + m[3] + m[4]; pattern != "^$" {
				flags, patterns = append(flags, m[1]), append(patterns, pattern)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(cmd) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		names := testNames(t, pkgs)
		for k, pattern := range patterns {
			for _, alt := range alternatives(pattern) {
				// A -run level separator: only the top-level name is a func.
				alt, _, _ = strings.Cut(alt, "/")
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -%s alternative %q does not compile: %v", n+1, flags[k], alt, err)
					continue
				}
				checked++
				if !matchesAny(re, names) {
					t.Errorf("ci.yml:%d: -%s alternative %q matches no Test or Fuzz function in %v", n+1, flags[k], alt, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml has no go test -run or -fuzz pattern; the parser is out of date")
	}
}

// alternatives splits a pattern at its top-level '|'.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// testNames returns the Test and Fuzz functions of the listed package
// directories. A "/..." pattern fails the test: no -run step uses one yet.
func testNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg, "/...") {
			t.Errorf("ci.yml: a -run or -fuzz pattern over %s: this check reads single package directories only", pkg)
			continue
		}
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
	}
	return names
}
