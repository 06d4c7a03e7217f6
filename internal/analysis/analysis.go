// Package analysis is opaque-vet: a project-specific static-analysis suite
// that machine-checks the invariants the hot-path and fault-tolerance work
// left behind — zero-allocation kernels, exhaustive frame-type switches and
// errors.Is on typed sentinels. Each analyzer is documented in
// docs/LINTS.md; the suite runs in CI (`go run ./cmd/opaque-vet ./...`) next
// to go vet and staticcheck, and must stay clean on every PR.
//
// The suite is deliberately stdlib-only (go/parser + go/types with the
// source importer, see load.go): the module has no dependencies and the
// linters must not be the first.
//
// A finding can be waived line by line with a justifying comment: the
// marker opaque:allow, the analyzer's name in parentheses, then the reason
// (docs/LINTS.md shows one). The waiver covers the line it is written on and
// the line immediately below it, so it works both as a trailing comment on
// the offending line and as a comment of its own directly above it. A
// waiver that names no analyzer of the suite is itself a finding, so
// deleting an analyzer cannot leave dead waivers behind.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check over a typechecked package.
type Analyzer struct {
	// Name tags findings ([name]) and is what -only and waivers name.
	Name string
	// Doc is a one-line description shown by opaque-vet -list.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package plus the report sink.
type Pass struct {
	Analyzer *Analyzer
	Mod      *Module
	Pkg      *Package

	report func(Finding)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Mod.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when the typechecker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves id to the object it uses or defines, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Finding is one reported invariant violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the suite's canonical file:line form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// All returns the suite: every analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoAlloc,
		FrameCase,
		Sentinelis,
	}
}

// ByName resolves a comma-separated analyzer name list against the suite.
func ByName(names string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: empty analyzer list %q", names)
	}
	return out, nil
}

// allowRe matches one waiver comment; the group is the comma-separated
// analyzer name list.
var allowRe = regexp.MustCompile(`opaque:allow\(([^)]*)\)`)

// staleWaiver tags the findings Run reports for waivers that name no
// analyzer of the suite.
const staleWaiver = "allow"

// waivers maps file name → line → analyzer names waived on that line.
type waivers map[string]map[int]map[string]bool

// collect registers every waiver comment of f and returns one finding per
// name in them that known does not hold.
func (w waivers) collect(fset *token.FileSet, f *ast.File, known map[string]bool) []Finding {
	var stale []Finding
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			for _, m := range allowRe.FindAllStringSubmatch(c.Text, -1) {
				pos := fset.Position(c.Pos())
				end := fset.Position(c.End())
				names := strings.Split(m[1], ",")
				for i := range names {
					names[i] = strings.TrimSpace(names[i])
					if !known[names[i]] {
						stale = append(stale, Finding{Analyzer: staleWaiver, Pos: pos,
							Message: fmt.Sprintf("waiver names %q, which is no analyzer of the suite", names[i])})
					}
				}
				byLine := w[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					w[pos.Filename] = byLine
				}
				// The waiver covers its own line(s) and the line below the
				// comment, so it works trailing and standalone-above alike.
				for line := pos.Line; line <= end.Line+1; line++ {
					waived := byLine[line]
					if waived == nil {
						waived = map[string]bool{}
						byLine[line] = waived
					}
					for _, name := range names {
						waived[name] = true
					}
				}
			}
		}
	}
	return stale
}

// allowed reports whether a finding is waived.
func (w waivers) allowed(f Finding) bool {
	return w[f.Pos.Filename][f.Pos.Line][f.Analyzer]
}

// Run applies the analyzers to every package of the module and returns the
// surviving (non-waived) findings, sorted by position. Waivers are checked
// against the whole suite, not against analyzers: one naming an analyzer
// left out of this run is not stale.
func Run(mod *Module, analyzers []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	w := waivers{}
	var findings []Finding
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			findings = append(findings, w.collect(mod.Fset, f, known)...)
		}
	}
	for _, pkg := range mod.Packages {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Mod:      mod,
				Pkg:      pkg,
				report: func(f Finding) {
					if !w.allowed(f) {
						findings = append(findings, f)
					}
				},
			}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return findings
}

// --- shared type-inspection helpers used by several analyzers ---

// namedType unwraps pointers and aliases and returns the named type of t,
// or nil when t has none.
func namedType(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isNamed reports whether t (through pointers) is the named type
// modulePath-relative pkgSuffix.name — e.g. ("internal/protocol",
// "FrameType"). Matching is done against the module path of the pass so
// the testdata trees, loaded under the same pseudo-module path, match too.
func (p *Pass) isNamed(t types.Type, pkgSuffix, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && n.Obj().Pkg().Path() == p.Mod.Path+"/"+pkgSuffix
}

// moduleSentinel reports whether obj is a package-level error variable named
// Err* declared inside the module under analysis.
func (p *Pass) moduleSentinel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	if v.Parent() != v.Pkg().Scope() {
		return false
	}
	if !strings.HasPrefix(v.Name(), "Err") {
		return false
	}
	path := v.Pkg().Path()
	if path != p.Mod.Path && !strings.HasPrefix(path, p.Mod.Path+"/") {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	return types.AssignableTo(v.Type(), errType)
}

// funcNoalloc reports whether a function declaration carries the
// //opaque:noalloc annotation in its doc comment.
func funcNoalloc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "opaque:noalloc") {
			return true
		}
	}
	return false
}

// declName renders a function declaration's name including any receiver,
// for findings ("(*Workspace).expand").
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	var b strings.Builder
	if star, ok := recv.(*ast.StarExpr); ok {
		b.WriteString("(*")
		writeTypeName(&b, star.X)
		b.WriteString(")")
	} else {
		writeTypeName(&b, recv)
	}
	b.WriteString(".")
	b.WriteString(fd.Name.Name)
	return b.String()
}

// writeTypeName renders the identifier core of a receiver type expression.
func writeTypeName(b *strings.Builder, e ast.Expr) {
	switch t := e.(type) {
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr: // generic receiver
		writeTypeName(b, t.X)
	case *ast.IndexListExpr:
		writeTypeName(b, t.X)
	default:
		b.WriteString("?")
	}
}
