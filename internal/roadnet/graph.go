// Package roadnet models a road network as a weighted graph embedded in the
// plane, following the model of Section III-A of the OPAQUE paper: a graph
// G(N, E) whose nodes are road intersections (with planar coordinates) and
// whose edges are road segments carrying a non-negative travel cost.
//
// The package provides:
//
//   - a graph with stable integer node identifiers whose adjacency is stored
//     in compressed sparse row (CSR) form once frozen: one flat arc array
//     plus per-node offsets, so arc iteration is a contiguous scan with no
//     per-node allocation (ForEachArc / Arcs),
//   - a lazily built reverse CSR adjacency (ReverseArcs) for backward
//     traversals and weak-connectivity analysis,
//   - a spatial grid index for nearest-node and range lookups,
//   - connectivity analysis (components, reachability),
//   - text serialization.
//
// All other OPAQUE packages (search, storage, obfuscation, …) are built on
// top of this package. The CSR layout is what the query hot path of
// internal/search leans on: the inner relax loop of every Dijkstra-family
// search walks g.arcs[offsets[u]:offsets[u+1]] directly and never
// materialises per-node adjacency slices on the heap.
package roadnet

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// NodeID identifies a node in a Graph. IDs are dense: a graph with n nodes
// uses IDs 0..n-1. InvalidNode marks "no node".
type NodeID int32

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Node is a road intersection (or address point) embedded in the plane.
// Weight is an application-defined popularity/association weight used by the
// density-aware obfuscation strategy and by the adversary's prior model; it
// defaults to 1.
type Node struct {
	ID     NodeID
	X, Y   float64
	Weight float64
}

// Edge is a directed road segment from From to To with a non-negative cost
// (travel distance, time or toll).
type Edge struct {
	From NodeID
	To   NodeID
	Cost float64
}

// Arc is the adjacency-list entry stored per node: the head node and the
// traversal cost.
type Arc struct {
	To   NodeID
	Cost float64
}

// Graph is a weighted directed graph embedded in the plane. Road networks are
// usually symmetric; AddBidirectionalEdge inserts both directions. Graph is
// immutable once Freeze has been called; all search code operates on frozen
// graphs, which guarantees the CSR arrays are built and index lookups are
// valid.
type Graph struct {
	nodes []Node
	// adjacency in compressed sparse row form, built by Freeze.
	offsets []int32
	arcs    []Arc
	// staging adjacency used while the graph is mutable.
	staging [][]Arc
	frozen  bool

	// reverse adjacency in CSR form, built lazily on first use (frozen
	// graphs only): revArcs[revOffsets[v]:revOffsets[v+1]] are the arcs
	// entering v, each stored with To = the predecessor node.
	revOnce    sync.Once
	revOffsets []int32
	revArcs    []Arc

	// bounding box, maintained incrementally.
	minX, minY, maxX, maxY float64

	grid *gridIndex

	// cached topology/content checksums (checksum.go), populated lazily on
	// frozen graphs and seeded incrementally by WithUpdatedWeights.
	csum csumCache
}

// NewGraph returns an empty mutable graph with capacity hints for n nodes and
// m directed edges.
func NewGraph(n, m int) *Graph {
	g := &Graph{
		nodes:   make([]Node, 0, n),
		staging: make([][]Arc, 0, n),
		minX:    math.Inf(1),
		minY:    math.Inf(1),
		maxX:    math.Inf(-1),
		maxY:    math.Inf(-1),
	}
	_ = m
	return g
}

// AddNode appends a node at (x, y) with unit weight and returns its ID.
func (g *Graph) AddNode(x, y float64) NodeID {
	return g.AddWeightedNode(x, y, 1)
}

// AddWeightedNode appends a node at (x, y) with the given association weight
// and returns its ID.
func (g *Graph) AddWeightedNode(x, y, weight float64) NodeID {
	if g.frozen {
		panic("roadnet: AddWeightedNode on frozen graph")
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, X: x, Y: y, Weight: weight})
	g.staging = append(g.staging, nil)
	if x < g.minX {
		g.minX = x
	}
	if y < g.minY {
		g.minY = y
	}
	if x > g.maxX {
		g.maxX = x
	}
	if y > g.maxY {
		g.maxY = y
	}
	return id
}

// AddEdge inserts a directed edge. It returns an error if either endpoint is
// out of range or the cost is negative or not finite.
func (g *Graph) AddEdge(from, to NodeID, cost float64) error {
	if g.frozen {
		return fmt.Errorf("roadnet: AddEdge on frozen graph")
	}
	if !g.validID(from) || !g.validID(to) {
		return fmt.Errorf("roadnet: edge (%d,%d) references unknown node (have %d nodes)", from, to, len(g.nodes))
	}
	if err := CheckCost(cost); err != nil {
		return fmt.Errorf("roadnet: edge (%d,%d) has invalid cost %v: %w", from, to, cost, err)
	}
	g.staging[from] = append(g.staging[from], Arc{To: to, Cost: cost})
	return nil
}

// AddBidirectionalEdge inserts the edge in both directions with the same cost.
func (g *Graph) AddBidirectionalEdge(a, b NodeID, cost float64) error {
	if err := g.AddEdge(a, b, cost); err != nil {
		return err
	}
	return g.AddEdge(b, a, cost)
}

// MustAddEdge is AddEdge but panics on error; intended for generators whose
// inputs are valid by construction.
func (g *Graph) MustAddEdge(from, to NodeID, cost float64) {
	if err := g.AddEdge(from, to, cost); err != nil {
		panic(err)
	}
}

// MustAddBidirectionalEdge is AddBidirectionalEdge but panics on error.
func (g *Graph) MustAddBidirectionalEdge(a, b NodeID, cost float64) {
	if err := g.AddBidirectionalEdge(a, b, cost); err != nil {
		panic(err)
	}
}

// Freeze converts the staged adjacency lists into compressed sparse row form,
// builds the spatial index and marks the graph immutable. Freeze is
// idempotent.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	n := len(g.nodes)
	g.offsets = make([]int32, n+1)
	total := 0
	for i := 0; i < n; i++ {
		// Deterministic arc order: by head node then cost.
		arcs := g.staging[i]
		sort.Slice(arcs, func(a, b int) bool {
			if arcs[a].To != arcs[b].To {
				return arcs[a].To < arcs[b].To
			}
			return arcs[a].Cost < arcs[b].Cost
		})
		total += len(arcs)
	}
	g.arcs = make([]Arc, 0, total)
	for i := 0; i < n; i++ {
		g.offsets[i] = int32(len(g.arcs))
		g.arcs = append(g.arcs, g.staging[i]...)
	}
	g.offsets[n] = int32(len(g.arcs))
	g.staging = nil
	g.frozen = true
	g.grid = buildGridIndex(g)
}

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.frozen }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumArcs returns the number of directed arcs. Valid only after Freeze.
func (g *Graph) NumArcs() int {
	if !g.frozen {
		n := 0
		for _, s := range g.staging {
			n += len(s)
		}
		return n
	}
	return len(g.arcs)
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node {
	return g.nodes[id]
}

// Nodes returns the backing node slice. Callers must not modify it.
func (g *Graph) Nodes() []Node { return g.nodes }

// Arcs returns the outgoing arcs of node id. The returned slice aliases the
// graph's internal storage and must not be modified. Valid only after Freeze.
func (g *Graph) Arcs(id NodeID) []Arc {
	if !g.frozen {
		return g.staging[id]
	}
	return g.arcs[g.offsets[id]:g.offsets[id+1]]
}

// ForEachArc calls yield for every outgoing arc of id in adjacency order,
// stopping early when yield returns false. On a frozen graph this walks the
// CSR arc array directly; it is the allocation-free iteration the search hot
// path uses.
func (g *Graph) ForEachArc(id NodeID, yield func(Arc) bool) {
	for _, a := range g.Arcs(id) {
		if !yield(a) {
			return
		}
	}
}

// ensureReverse builds the reverse CSR adjacency on first use. It requires a
// frozen graph: the reverse layout is derived from the forward CSR arrays.
// The index costs as much memory as the forward arc array and is retained
// for the graph's lifetime — the deliberate trade for making every later
// reverse traversal (connectivity analysis, backward searches) a contiguous
// array scan instead of a per-call slice-of-slices rebuild.
func (g *Graph) ensureReverse() {
	if !g.frozen {
		panic("roadnet: reverse adjacency requires a frozen graph")
	}
	g.revOnce.Do(func() {
		n := len(g.nodes)
		g.revOffsets = make([]int32, n+1)
		for _, a := range g.arcs {
			g.revOffsets[a.To+1]++
		}
		for v := 0; v < n; v++ {
			g.revOffsets[v+1] += g.revOffsets[v]
		}
		g.revArcs = make([]Arc, len(g.arcs))
		next := make([]int32, n)
		copy(next, g.revOffsets[:n])
		// Iterating sources in ascending order keeps each reverse list
		// sorted by predecessor ID, matching the order a per-node rebuild
		// would produce.
		for u := 0; u < n; u++ {
			for _, a := range g.arcs[g.offsets[u]:g.offsets[u+1]] {
				g.revArcs[next[a.To]] = Arc{To: NodeID(u), Cost: a.Cost}
				next[a.To]++
			}
		}
	})
}

// ReverseArcs returns the incoming arcs of node id as Arc values whose To
// field holds the predecessor node. The returned slice aliases the graph's
// reverse CSR storage and must not be modified. Valid only after Freeze; the
// reverse layout is built once, on first use, and shared by all callers.
func (g *Graph) ReverseArcs(id NodeID) []Arc {
	g.ensureReverse()
	return g.revArcs[g.revOffsets[id]:g.revOffsets[id+1]]
}

// ForEachReverseArc calls yield for every incoming arc of id (To = the
// predecessor), stopping early when yield returns false. Valid only after
// Freeze.
func (g *Graph) ForEachReverseArc(id NodeID, yield func(Arc) bool) {
	for _, a := range g.ReverseArcs(id) {
		if !yield(a) {
			return
		}
	}
}

// InDegree returns the in-degree of node id. Valid only after Freeze.
func (g *Graph) InDegree(id NodeID) int { return len(g.ReverseArcs(id)) }

// Degree returns the out-degree of node id.
func (g *Graph) Degree(id NodeID) int { return len(g.Arcs(id)) }

// ArcCost returns the cost of the cheapest arc from "from" to "to" and true,
// or 0 and false when no such arc exists.
func (g *Graph) ArcCost(from, to NodeID) (float64, bool) {
	best := math.Inf(1)
	found := false
	for _, a := range g.Arcs(from) {
		if a.To == to && a.Cost < best {
			best = a.Cost
			found = true
		}
	}
	if !found {
		return 0, false
	}
	return best, true
}

// Bounds returns the bounding box (minX, minY, maxX, maxY) of all nodes. For
// an empty graph it returns zeroes.
func (g *Graph) Bounds() (minX, minY, maxX, maxY float64) {
	if len(g.nodes) == 0 {
		return 0, 0, 0, 0
	}
	return g.minX, g.minY, g.maxX, g.maxY
}

// Euclid returns the Euclidean distance between nodes a and b, the lower
// bound the cost model and the workload generators measure separation by.
func (g *Graph) Euclid(a, b NodeID) float64 {
	na, nb := g.nodes[a], g.nodes[b]
	dx, dy := na.X-nb.X, na.Y-nb.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// validID reports whether id references an existing node.
func (g *Graph) validID(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes)
}

// ValidNode reports whether id references an existing node.
func (g *Graph) ValidNode(id NodeID) bool { return g.validID(id) }

// Reverse returns a new frozen graph with every arc reversed. Node IDs,
// coordinates and weights are preserved. Useful for backward searches.
func (g *Graph) Reverse() *Graph {
	r := NewGraph(g.NumNodes(), g.NumArcs())
	for _, n := range g.nodes {
		r.AddWeightedNode(n.X, n.Y, n.Weight)
	}
	for _, n := range g.nodes {
		for _, a := range g.Arcs(n.ID) {
			r.MustAddEdge(a.To, n.ID, a.Cost)
		}
	}
	r.Freeze()
	return r
}

// Clone returns a deep, mutable copy of the graph (unfrozen).
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.NumNodes(), g.NumArcs())
	for _, n := range g.nodes {
		c.AddWeightedNode(n.X, n.Y, n.Weight)
	}
	for _, n := range g.nodes {
		for _, a := range g.Arcs(n.ID) {
			c.MustAddEdge(n.ID, a.To, a.Cost)
		}
	}
	return c
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("roadnet.Graph{nodes: %d, arcs: %d, frozen: %v}", g.NumNodes(), g.NumArcs(), g.frozen)
}
