// Command opaque-vet runs the project's static-analysis suite
// (internal/analysis): three analyzers enforcing the codebase's hot-path and
// concurrency invariants — zero-allocation annotations, exhaustive
// frame-type switches and errors.Is on typed sentinels. See docs/LINTS.md
// for what each analyzer checks and how to waive a finding.
//
// Usage:
//
//	opaque-vet [-list] [-only name,...] [pattern ...]
//
// Patterns select packages by directory, go-style: ./... (everything, the
// default), ./internal/search (one package), ./internal/... (a subtree).
// Findings are printed as file:line: [name] message; the exit status is 1
// when anything is found, 2 on usage or load errors.
//
// During iteration, run a single analyzer over one package:
//
//	go run ./cmd/opaque-vet -only noalloc ./internal/search/...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"opaque/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], mustGetwd(), os.Stdout, os.Stderr))
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "opaque-vet:", err)
		os.Exit(2)
	}
	return wd
}

// run is the testable main: argv without the program name, the working
// directory and the output streams. It returns the process exit code.
func run(argv []string, wd string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("opaque-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers of the suite and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.All()
	if *only != "" {
		var err error
		analyzers, err = analysis.ByName(*only)
		if err != nil {
			fmt.Fprintln(stderr, "opaque-vet:", err)
			return 2
		}
	}

	root, err := moduleRoot(wd)
	if err != nil {
		fmt.Fprintln(stderr, "opaque-vet:", err)
		return 2
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "opaque-vet:", err)
		return 2
	}

	match, err := patternMatcher(fs.Args(), wd, root)
	if err != nil {
		fmt.Fprintln(stderr, "opaque-vet:", err)
		return 2
	}

	found := 0
	for _, f := range analysis.Run(mod, analyzers) {
		rel, err := filepath.Rel(wd, f.Pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			rel = f.Pos.Filename
		}
		if !match(f.Pos.Filename) {
			continue
		}
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", rel, f.Pos.Line, f.Analyzer, f.Message)
		found++
	}
	if found > 0 {
		fmt.Fprintf(stderr, "opaque-vet: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// patternMatcher compiles go-style package patterns into a filename filter.
// Patterns are resolved against wd; no patterns (or ./...) selects the whole
// module.
func patternMatcher(patterns []string, wd, root string) (func(string) bool, error) {
	if len(patterns) == 0 {
		return func(string) bool { return true }, nil
	}
	type rule struct {
		dir     string // absolute directory
		subtree bool
	}
	var rules []rule
	for _, p := range patterns {
		subtree := false
		if p == "..." {
			p = "./..."
		}
		if strings.HasSuffix(p, "/...") {
			subtree = true
			p = strings.TrimSuffix(p, "/...")
		}
		if p == "." && subtree && wd == root {
			return func(string) bool { return true }, nil
		}
		abs := p
		if !filepath.IsAbs(p) {
			abs = filepath.Join(wd, p)
		}
		rules = append(rules, rule{dir: filepath.Clean(abs), subtree: subtree})
	}
	return func(filename string) bool {
		dir := filepath.Dir(filename)
		for _, r := range rules {
			if dir == r.dir {
				return true
			}
			if r.subtree && strings.HasPrefix(dir, r.dir+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}, nil
}
