package analysis

import (
	"go/ast"
	"go/types"
)

// accessorMethods are the storage.Accessor methods. Calling one of them on a
// *storage.MutableGraph reads whatever snapshot is current at that instant —
// two such calls can straddle a concurrent weight update and observe
// different generations, which is exactly the mixed-generation-table bug the
// PR 5 snapshot discipline exists to prevent.
var accessorMethods = map[string]bool{
	"NumNodes":   true,
	"Arcs":       true,
	"ForEachArc": true,
	"Graph":      true,
}

// SnapshotPin flags storage.Accessor method calls made directly on a
// *storage.MutableGraph outside the storage package itself. Evaluation code
// must pin one immutable view first — storage.SnapshotOf(m) or m.Snapshot()
// — and read through the snapshot, so everything it computes reflects one
// generation. Snapshot, UpdateWeights and Generation remain callable on the
// mutable value: they are the snapshot-discipline entry points, not reads.
var SnapshotPin = &Analyzer{
	Name: "snapshotpin",
	Doc:  "storage.Accessor reads on *storage.MutableGraph must go through storage.SnapshotOf / Snapshot",
	Run:  runSnapshotPin,
}

func runSnapshotPin(pass *Pass) {
	if pass.Pkg.Path == pass.Mod.Path+"/internal/storage" {
		return // the accessor's own implementation reads m.cur by design
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := pass.Pkg.Info.Selections[sel]
			if selection == nil || selection.Kind() != types.MethodVal {
				return true
			}
			if !accessorMethods[sel.Sel.Name] {
				return true
			}
			if !pass.isNamed(selection.Recv(), "internal/storage", "MutableGraph") {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s called directly on *storage.MutableGraph; pin a snapshot first (storage.SnapshotOf) so the evaluation sees one generation",
				sel.Sel.Name)
			return true
		})
	}
}
