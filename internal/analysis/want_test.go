package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"sync"
	"testing"
)

// The testdata tree under testdata/src/opaque is loaded once — the source
// importer typechecks stdlib dependencies from GOROOT, which is the slow
// part — and shared by every assertion test.
var (
	testdataOnce sync.Once
	testdataMod  *Module
	testdataErr  error
)

func loadTestdata(t *testing.T) *Module {
	t.Helper()
	testdataOnce.Do(func() {
		testdataMod, testdataErr = LoadTree(filepath.Join("testdata", "src", "opaque"), "opaque")
	})
	if testdataErr != nil {
		t.Fatalf("loading testdata tree: %v", testdataErr)
	}
	return testdataMod
}

// wantRe matches one expectation comment: // want `regex`. The regex is
// matched against "[analyzer] message" of a finding on the same line.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants scans every comment of the loaded tree for // want
// expectations.
func collectWants(t *testing.T, mod *Module) []want {
	t.Helper()
	var wants []want
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want regex %q: %v", mod.Fset.Position(c.Pos()), m[1], err)
						}
						pos := mod.Fset.Position(c.Pos())
						wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// TestAnalyzersAgainstWants runs the whole suite over the testdata tree and
// requires an exact bipartite match between findings and // want
// expectations: every finding must be wanted, every want must be found.
// Waiver lines carry a violation but no want, so a broken waiver surfaces as
// an unexpected finding.
func TestAnalyzersAgainstWants(t *testing.T) {
	mod := loadTestdata(t)
	wants := collectWants(t, mod)
	if len(wants) == 0 {
		t.Fatal("no // want expectations collected from testdata")
	}

	findings := Run(mod, All())
	if len(findings) == 0 {
		t.Fatal("suite produced no findings over testdata")
	}

	unmatched := make([]bool, len(findings))
	for i := range unmatched {
		unmatched[i] = true
	}
	for _, w := range wants {
		matched := false
		for i, f := range findings {
			if !unmatched[i] || f.Pos.Filename != w.file || f.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)) {
				unmatched[i] = false
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: wanted finding matching %q, got none", w.file, w.line, w.re)
		}
	}
	for i, f := range findings {
		if unmatched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// TestWaiversAreExercised guards the waiver fixtures themselves: each
// analyzer's testdata contains at least one //opaque:allow waiver, so the
// suppression path above is actually covered for every analyzer.
func TestWaiversAreExercised(t *testing.T) {
	mod := loadTestdata(t)
	byAnalyzer := map[string]int{}
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range allowRe.FindAllStringSubmatch(c.Text, -1) {
						byAnalyzer[m[1]]++
					}
				}
			}
		}
	}
	for _, a := range All() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("testdata has no //opaque:allow(%s) waiver fixture", a.Name)
		}
	}
}

// TestByName covers the -only name resolution.
func TestByName(t *testing.T) {
	got, err := ByName("sentinelis, noalloc")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if len(got) != 2 || got[0].Name != "sentinelis" || got[1].Name != "noalloc" {
		t.Errorf("ByName returned %v", got)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName accepted an unknown analyzer name")
	}
	if _, err := ByName(" , "); err == nil {
		t.Error("ByName accepted an empty list")
	}
}

// TestOnlySelectedAnalyzerRuns ensures Run respects the analyzer subset: a
// noalloc-only run over testdata must produce no sentinelis findings. Stale
// waivers are checked against the whole suite, so the subset run reports
// exactly the stale waivers the full run does — and none for the waivers
// naming analyzers it left out.
func TestOnlySelectedAnalyzerRuns(t *testing.T) {
	mod := loadTestdata(t)
	only, err := ByName("noalloc")
	if err != nil {
		t.Fatal(err)
	}
	stale := func(findings []Finding) []string {
		var out []string
		for _, f := range findings {
			if f.Analyzer == staleWaiver {
				out = append(out, f.String())
			}
		}
		return out
	}
	findings := Run(mod, only)
	for _, f := range findings {
		if f.Analyzer != "noalloc" && f.Analyzer != staleWaiver {
			t.Errorf("noalloc-only run produced %s", f)
		}
	}
	got, want := stale(findings), stale(Run(mod, All()))
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("noalloc-only run reported stale waivers %q, full run %q", got, want)
	}
}

// TestFindingString pins the canonical file:line: [name] message rendering
// the CI log and the waiver docs rely on.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "noalloc", Message: "append allocates"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 7
	if got, wantStr := f.String(), "a/b.go:7: [noalloc] append allocates"; got != wantStr {
		t.Errorf("Finding.String() = %q, want %q", got, wantStr)
	}
}

// TestTestdataPackagesLoaded guards the fixture layout: the loader must see
// one package per analyzer, the stale-waiver fixture and the two fakes.
func TestTestdataPackagesLoaded(t *testing.T) {
	mod := loadTestdata(t)
	for _, path := range []string{
		"opaque/internal/search",
		"opaque/internal/protocol",
		"opaque/noalloc",
		"opaque/framecase",
		"opaque/sentinelis",
		"opaque/stalewaiver",
	} {
		if mod.Lookup(path) == nil {
			t.Errorf("testdata package %s not loaded", path)
		}
	}
}
