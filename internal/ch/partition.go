package ch

import (
	"fmt"

	"opaque/internal/roadnet"
)

// This file is the partition awareness of the overlay: the frozen mapping
// from nodes and arena arcs to partition cells that tells the serving tier
// which cells a weight update reached (RecustomizeStats.Recustomized).
// Customization itself ignores it: every overlay, partitioned or not, runs
// the same bottom-up triangle pass (customize.go).
//
// A partitioned build contracts nodes cell by cell — all interiors of cell
// 0, then all interiors of cell 1, …, and finally every boundary node — so
// boundary nodes occupy the top of the hierarchy. Every arena arc is then
// owned by its lower-ranked endpoint and inherits that endpoint's layer:
//
//   - interior endpoint of cell c → the arc belongs to cell c's weight layer
//   - boundary endpoint           → the arc belongs to the boundary "top" layer
//
// The invariant that makes this a partition of the arena into layers is that
// no arena arc ever connects interiors of two different cells. Original arcs
// cannot (an arc crossing cells makes both endpoints boundary by definition),
// and contraction preserves the property: while interiors of cell c are
// contracted, every neighbour of the contracted node lies in cell c or on the
// boundary, so every inserted shortcut does too; shortcuts inserted while
// contracting boundary nodes connect boundary nodes.
//
// chPartition holds only metric-independent structure; it is shared by every
// re-customized generation of an overlay, exactly like the ranks and CSR
// views.
type chPartition struct {
	cells      int
	cellOf     []int32
	isBoundary []bool

	// arcLayer[i] is the layer of arena arc i: a cell index, or cells for
	// the top layer.
	arcLayer []int32
}

// deriveChPartition classifies nodes and arena arcs into layers from a
// node→cell assignment, validating the two structural invariants of
// partitioned contraction: boundary nodes rank above every interior node,
// and no arena arc connects interiors of two different cells. It is called
// by the builder (assignment from roadnet.Partition) and by the OCH1 v3
// loader (assignment from the file), so a loaded overlay is checked against
// exactly the invariants the builder guarantees.
func deriveChPartition(n int, rank []int32, arcs []arc, nOriginal int, cellOf []int32, cells int) (*chPartition, error) {
	if cells < 1 {
		return nil, fmt.Errorf("ch: partition needs at least one cell, got %d", cells)
	}
	if len(cellOf) != n {
		return nil, fmt.Errorf("ch: partition assignment covers %d nodes, overlay has %d", len(cellOf), n)
	}
	for v, c := range cellOf {
		if c < 0 || int(c) >= cells {
			return nil, fmt.Errorf("ch: node %d assigned to cell %d, valid range [0,%d)", v, c, cells)
		}
	}
	p := &chPartition{
		cells:      cells,
		cellOf:     cellOf,
		isBoundary: make([]bool, n),
	}
	// The boundary is derived from the original arcs of the arena — the
	// graph's non-loop arcs — matching roadnet.Partition's definition of
	// the cut exactly.
	for i := 0; i < nOriginal; i++ {
		a := &arcs[i]
		if cellOf[a.from] != cellOf[a.to] {
			p.isBoundary[a.from] = true
			p.isBoundary[a.to] = true
		}
	}

	// The rank-layering check: partitioned contraction puts every boundary
	// node above every interior node.
	lowestBoundary := int32(n)
	for v, b := range p.isBoundary {
		if b {
			lowestBoundary = min(lowestBoundary, rank[v])
		}
	}
	for v, b := range p.isBoundary {
		if !b && rank[v] > lowestBoundary {
			return nil, fmt.Errorf("ch: interior node %d ranks above a boundary node; partitioned overlays contract boundary nodes last", v)
		}
	}

	// Arc layers: owner = lower-ranked endpoint. Reject interior–interior
	// arcs across cells — such an arc would belong to two cells at once.
	p.arcLayer = make([]int32, len(arcs))
	top := int32(cells)
	for i := range arcs {
		a := &arcs[i]
		lo := a.from
		if rank[a.to] < rank[a.from] {
			lo = a.to
		}
		if p.isBoundary[lo] {
			p.arcLayer[i] = top
			continue
		}
		p.arcLayer[i] = cellOf[lo]
		if !p.isBoundary[a.from] && !p.isBoundary[a.to] && cellOf[a.from] != cellOf[a.to] {
			return nil, fmt.Errorf("ch: arena arc %d connects interiors of cells %d and %d; partitioned contraction never creates such arcs",
				i, cellOf[a.from], cellOf[a.to])
		}
	}
	return p, nil
}

// PartitionCells returns the number of partition cells of the overlay, or 0
// for an unpartitioned overlay.
func (o *Overlay) PartitionCells() int {
	if o.part == nil {
		return 0
	}
	return o.part.cells
}

// CellOfNode returns the partition cell of v and whether v is a boundary
// node. For unpartitioned overlays it returns (0, false).
func (o *Overlay) CellOfNode(v roadnet.NodeID) (cell int, boundary bool) {
	if o.part == nil {
		return 0, false
	}
	return int(o.part.cellOf[v]), o.part.isBoundary[v]
}
