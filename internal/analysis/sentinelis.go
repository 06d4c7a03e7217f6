package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// Sentinelis flags error-identity checks that break under wrapping. The
// module's error contract (search's ErrStaleEngine/ErrEmptyQuery, the fleet's
// ErrQuorumNotReached, the OPMX1 frame errors) wraps every sentinel with
// fmt.Errorf("%w: detail", ...) as it crosses layers, so
//
//   - comparing err against a sentinel with == or != (including switch
//     cases over an error value) misses every wrapped occurrence: callers
//     must use errors.Is;
//   - wrapping a sentinel with a verb other than %w strips it from the
//     chain, so downstream errors.Is checks stop matching.
//
// A sentinel here is any package-level `var Err… error` declared in this
// module; stdlib identities like io.EOF (compared unwrapped by the
// io.Reader contract) are deliberately out of scope.
var Sentinelis = &Analyzer{
	Name: "sentinelis",
	Doc:  "module error sentinels must be matched with errors.Is and wrapped with %w",
	Run:  runSentinelis,
}

func runSentinelis(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if name, ok := pass.sentinelRef(side); ok {
						pass.Reportf(n.Pos(),
							"comparison with sentinel %s using %s misses wrapped errors; use errors.Is", name, n.Op)
					}
				}
			case *ast.SwitchStmt:
				pass.checkErrorSwitch(n)
			case *ast.CallExpr:
				pass.checkErrorfWrap(n)
			}
			return true
		})
	}
}

// sentinelRef reports whether e is a direct reference to a module error
// sentinel, returning its display name.
func (p *Pass) sentinelRef(e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	obj := p.ObjectOf(id)
	if obj == nil || !p.moduleSentinel(obj) {
		return "", false
	}
	return obj.Name(), true
}

// checkErrorSwitch flags `switch err { case ErrFoo: }`, the == comparison in
// switch clothing.
func (p *Pass) checkErrorSwitch(sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	tagType := p.TypeOf(sw.Tag)
	if tagType == nil {
		return
	}
	errType := types.Universe.Lookup("error").Type()
	if !types.AssignableTo(tagType, errType) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if name, ok := p.sentinelRef(e); ok {
				p.Reportf(e.Pos(),
					"switch case compares error against sentinel %s by identity; use if errors.Is(err, %s)", name, name)
			}
		}
	}
}

// checkErrorfWrap flags fmt.Errorf calls that pass a module sentinel under a
// verb other than %w.
func (p *Pass) checkErrorfWrap(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := p.ObjectOf(sel.Sel)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	tv, ok := p.Pkg.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return // non-constant format: nothing to line verbs up against
	}
	format, err := strconv.Unquote(tv.Value.ExactString())
	if err != nil {
		return
	}
	verbs, ok := formatVerbs(format)
	if !ok {
		return // explicit argument indexes etc.: too clever to line up
	}
	for i, arg := range call.Args[1:] {
		name, isSentinel := p.sentinelRef(arg)
		if !isSentinel {
			continue
		}
		if i >= len(verbs) {
			continue // vet already complains about missing verbs
		}
		if verbs[i] != 'w' {
			p.Reportf(arg.Pos(),
				"sentinel %s wrapped with %%%c loses the error chain; use %%w so errors.Is keeps matching", name, verbs[i])
		}
	}
}

// formatVerbs extracts the verb letter for each argument of a format string,
// in argument order. It reports !ok for formats using explicit argument
// indexes (%[1]v), which do not line up positionally.
func formatVerbs(format string) ([]byte, bool) {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Skip flags, width and precision.
		for i < len(format) {
			c := format[i]
			if c == '[' {
				return nil, false
			}
			if (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '#' || c == ' ' || c == '.' {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue // literal %%, consumes no argument
		}
		if format[i] == '*' {
			verbs = append(verbs, '*') // width argument
			i++
			if i < len(format) && format[i] != '%' {
				verbs = append(verbs, format[i])
			}
			continue
		}
		verbs = append(verbs, format[i])
	}
	return verbs, true
}
