package ch

import (
	"fmt"

	"opaque/internal/roadnet"
)

// This file is the partition awareness of the overlay: the frozen mapping
// from nodes and arena arcs to partition cells that lets the full
// customization pass (customize.go) run one goroutine per cell, lets paged
// deployments charge overlay residency per cell, and tells the serving tier
// which cells a weight update reached.
//
// A partitioned build contracts nodes cell by cell — all interiors of cell
// 0, then all interiors of cell 1, …, and finally every boundary node — so
// boundary nodes occupy the top of the hierarchy. Every arena arc is then
// owned by its lower-ranked endpoint and inherits that endpoint's layer:
//
//   - interior endpoint of cell c → the arc belongs to cell c's weight layer
//   - boundary endpoint           → the arc belongs to the boundary "top" layer
//
// The invariant that makes this a partition of the arena into independent
// layers is that no arena arc ever connects interiors of two different
// cells. Original arcs cannot (an arc crossing cells makes both endpoints
// boundary by definition), and contraction preserves the property: while
// interiors of cell c are contracted, every neighbour of the contracted
// node lies in cell c or on the boundary, so every inserted shortcut does
// too; shortcuts inserted while contracting boundary nodes connect boundary
// nodes. Consequently:
//
//   - every triangle leg of the customization pass at an interior node of
//     cell c is a cell-c arc, and every relaxation target is either a cell-c
//     arc or a boundary–boundary (top) arc;
//   - cell passes touch disjoint arc sets and can run in parallel;
//   - relaxations of top arcs discovered inside a cell pass are recorded as
//     that cell's *exports* and folded into the top layer afterwards, which
//     reproduces the global bottom-up order exactly (all interiors rank
//     below all boundary nodes).
//
// chPartition holds only metric-independent structure; it is shared by every
// re-customized generation of an overlay, exactly like the ranks and CSR
// views.
type chPartition struct {
	cells      int
	cellOf     []int32
	isBoundary []bool
	nBoundary  int

	// cellRank[c] lists cell c's interior nodes in ascending contraction
	// rank; boundaryByRank lists the boundary nodes the same way. These are
	// the iteration orders of the cell passes and the top pass.
	cellRank       [][]int32
	boundaryByRank []int32

	// arcLayer[i] is the layer of arena arc i: a cell index, or cells for
	// the top layer; layerOff[l+1]-layerOff[l] is the number of arcs of layer
	// l. topIndex maps arena indices of top arcs to a dense 0..numTop-1
	// numbering used by the export accumulators (-1 elsewhere); topArcs is
	// the inverse map.
	arcLayer []int32
	layerOff []int32
	topIndex []int32
	topArcs  []int32
	numTop   int
}

// topLayer returns the layer index of the boundary top layer.
func (p *chPartition) topLayer() int32 { return int32(p.cells) }

// deriveChPartition classifies nodes and arena arcs into layers from a
// node→cell assignment, validating the two structural prerequisites of
// cell-parallel customization: boundary nodes rank above every interior node,
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
	for _, b := range p.isBoundary {
		if b {
			p.nBoundary++
		}
	}

	// Iteration orders, and the rank-layering check: partitioned contraction
	// puts every boundary node above every interior node.
	byRank := make([]int32, n)
	for v, r := range rank {
		byRank[r] = int32(v)
	}
	p.cellRank = make([][]int32, cells)
	seenBoundary := false
	for _, v := range byRank {
		if p.isBoundary[v] {
			seenBoundary = true
			p.boundaryByRank = append(p.boundaryByRank, v)
			continue
		}
		if seenBoundary {
			return nil, fmt.Errorf("ch: interior node %d ranks above a boundary node; partitioned overlays contract boundary nodes last", v)
		}
		c := cellOf[v]
		p.cellRank[c] = append(p.cellRank[c], v)
	}

	// Arc layers: owner = lower-ranked endpoint. Reject interior–interior
	// arcs across cells — their existence would break pass independence.
	p.arcLayer = make([]int32, len(arcs))
	p.topIndex = make([]int32, len(arcs))
	top := p.topLayer()
	for i := range arcs {
		a := &arcs[i]
		lo := a.from
		if rank[a.to] < rank[a.from] {
			lo = a.to
		}
		p.topIndex[i] = -1
		if p.isBoundary[lo] {
			p.arcLayer[i] = top
			p.topIndex[i] = int32(p.numTop)
			p.topArcs = append(p.topArcs, int32(i))
			p.numTop++
			continue
		}
		p.arcLayer[i] = cellOf[lo]
		if !p.isBoundary[a.from] && !p.isBoundary[a.to] && cellOf[a.from] != cellOf[a.to] {
			return nil, fmt.Errorf("ch: arena arc %d connects interiors of cells %d and %d; partitioned contraction never creates such arcs",
				i, cellOf[a.from], cellOf[a.to])
		}
	}

	// Arc counts per layer as prefix sums (top layer last).
	p.layerOff = make([]int32, cells+2)
	for _, l := range p.arcLayer {
		p.layerOff[l+1]++
	}
	for l := 0; l <= cells; l++ {
		p.layerOff[l+1] += p.layerOff[l]
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

// NumBoundaryNodes returns the number of boundary nodes of the partition
// (0 for unpartitioned overlays).
func (o *Overlay) NumBoundaryNodes() int {
	if o.part == nil {
		return 0
	}
	return o.part.nBoundary
}

// LayerArcCount returns the number of arena arcs owned by the given layer —
// a cell index in [0, PartitionCells()), or PartitionCells() for the
// boundary top layer. It is what paged deployments use to size per-cell
// overlay layer residency.
func (o *Overlay) LayerArcCount(layer int) int {
	if o.part == nil {
		return 0
	}
	return int(o.part.layerOff[layer+1] - o.part.layerOff[layer])
}
