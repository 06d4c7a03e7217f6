package ch

import (
	"opaque/internal/roadnet"
	"opaque/internal/search"
)

// Engine is a point-query face over MTM: Path answers one source→dest query
// as a 1×1 many-to-many table. Every other caller evaluates tables on MTM
// directly; Engine goes at the next change to the benchmark harness, whose
// layer rows still call it.
type Engine struct{ m *MTM }

// NewEngine returns a point-query face over o. The second parameter is
// unused, as in NewMTM.
func NewEngine(o *Overlay, _ *search.WorkspacePool) *Engine {
	return &Engine{m: NewMTM(o, nil)}
}

// Path returns the shortest path from source to dest with shortcuts
// unpacked, or an empty path when dest is unreachable.
func (e *Engine) Path(source, dest roadnet.NodeID) (search.Path, search.Stats, error) {
	tbl, err := e.m.Table([]roadnet.NodeID{source}, []roadnet.NodeID{dest})
	if err != nil {
		return search.Path{}, search.Stats{}, err
	}
	return tbl.Path(0, 0), tbl.Stats(), nil
}

// appendArc appends the node sequence of arena arc idx excluding its tail:
// original arcs append their head, shortcuts recurse into their two halves in
// travel order.
func (o *Overlay) appendArc(dst []roadnet.NodeID, idx int32) []roadnet.NodeID {
	a := &o.arcs[idx]
	if a.childA < 0 {
		return append(dst, roadnet.NodeID(a.to))
	}
	return o.appendArc(o.appendArc(dst, a.childA), a.childB)
}

func validNode(o *Overlay, v roadnet.NodeID) bool {
	return v >= 0 && int(v) < o.n
}
