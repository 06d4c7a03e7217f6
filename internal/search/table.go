package search

import (
	"math"
	"slices"

	"opaque/internal/roadnet"
)

// Table is the flat form of one evaluated obfuscated path query Q(S, T): a
// row-major |S|×|T| distance table and every candidate path laid back to
// back in one node arena. It is what the evaluation engines build — the SSMD
// parent walk and the many-to-many engine's shortcut unpacking both append
// straight into Nodes — and what the server turns into a
// wire reply without copying a path. Cell c = i*|T|+j is the pair
// (Sources[i], Dests[j]): Dist[c] is its distance and Path(c) its route.
//
// A Table is also the sink the row evaluators append to: each appends |T|
// cells (a distance, the path's nodes, the path's end offset) per source, in
// destination order.
type Table struct {
	Sources []roadnet.NodeID
	Dests   []roadnet.NodeID
	// Dist[i*|T|+j] is the shortest-path distance Sources[i]→Dests[j], +Inf
	// when unreachable.
	Dist []float64
	// Nodes is the path arena and Ends the cells' end offsets into it: cell
	// c's path is Nodes[Ends[c-1]:Ends[c]] (from 0 for c = 0), empty when
	// unreachable. Both are nil on distance-only evaluations.
	Nodes []roadnet.NodeID
	Ends  []int32
	Stats Stats
}

// NewTable returns an empty path table for Q(sources, dests) — with nil
// sources, for a single row against dests — ready for an engine to append its
// cells to. The per-cell columns are sized exactly; the arena grows as paths
// arrive.
func NewTable(sources, dests []roadnet.NodeID) Table {
	cells := max(len(sources), 1) * len(dests)
	return Table{
		Sources: slices.Clone(sources),
		Dests:   slices.Clone(dests),
		Dist:    make([]float64, 0, cells),
		Ends:    make([]int32, 0, cells),
	}
}

// HasPaths reports whether the table carries candidate paths (false for
// distance-only evaluations).
func (t *Table) HasPaths() bool { return t.Ends != nil }

// Path returns cell c's node sequence, a capacity-clipped window of the
// arena (nil when unreachable or distance-only).
func (t *Table) Path(c int) []roadnet.NodeID {
	if t.Ends == nil {
		return nil
	}
	start := int32(0)
	if c > 0 {
		start = t.Ends[c-1]
	}
	end := t.Ends[c]
	if start == end {
		return nil
	}
	return t.Nodes[start:end:end]
}

// EndCell closes the cell whose path nodes (if any) were just appended to
// Nodes, recording its distance.
func (t *Table) EndCell(dist float64) {
	t.Dist = append(t.Dist, dist)
	t.Ends = append(t.Ends, int32(len(t.Nodes)))
}

// appendPath appends one materialised path as the next cell: its nodes, and
// its cost as the distance (+Inf for an empty path of a non-degenerate pair).
func (t *Table) appendPath(p Path, source, dest roadnet.NodeID) {
	t.Nodes = append(t.Nodes, p.Nodes...)
	if p.Empty() && source != dest {
		t.EndCell(math.Inf(1))
		return
	}
	t.EndCell(p.Cost)
}
