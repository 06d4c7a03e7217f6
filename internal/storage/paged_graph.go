package storage

import "opaque/internal/roadnet"

// Accessor is the graph view the search algorithms run against. It exposes
// adjacency like roadnet.Graph but lets the storage layer observe (and
// charge for) every node expansion. search.* takes an Accessor so the same
// algorithms run both purely in memory (MemoryGraph) and against the paged
// simulation (PagedGraph).
//
// An Accessor never changes under its reader: every implementation is an
// immutable view, so one query evaluated against it sees one graph and one
// generation. Weights that change live in a MutableGraph, which is not an
// Accessor and hands out GraphSnapshots.
type Accessor interface {
	// NumNodes returns the node count of the underlying graph.
	NumNodes() int
	// ForEachArc streams the outgoing arcs of id to yield in adjacency
	// order, stopping early when yield returns false, and charges any I/O
	// cost the implementation models once per call. It walks the graph's
	// CSR arc array in place, never materialises an adjacency slice, and is
	// safe for concurrent use.
	ForEachArc(id roadnet.NodeID, yield func(roadnet.Arc) bool)
	// Graph exposes the underlying road network for result validation and
	// coordinate lookups that are not charged as I/O.
	Graph() *roadnet.Graph
}

// MemoryGraph is an Accessor with no I/O accounting: every access is free.
type MemoryGraph struct {
	g *roadnet.Graph
}

// NewMemoryGraph wraps a frozen graph in a free-access Accessor.
func NewMemoryGraph(g *roadnet.Graph) *MemoryGraph { return &MemoryGraph{g: g} }

// NumNodes implements Accessor.
func (m *MemoryGraph) NumNodes() int { return m.g.NumNodes() }

// ForEachArc implements Accessor by walking the graph's CSR arc array.
func (m *MemoryGraph) ForEachArc(id roadnet.NodeID, yield func(roadnet.Arc) bool) {
	m.g.ForEachArc(id, yield)
}

// Graph implements Accessor.
func (m *MemoryGraph) Graph() *roadnet.Graph { return m.g }

// PagedGraph is an Accessor that charges a buffer-pool access for the page of
// every node whose adjacency list is read, modelling a disk-resident road
// network laid out by a PageStore.
type PagedGraph struct {
	store *PageStore
	pool  *BufferPool
}

// NewPagedGraph combines a page layout with a buffer pool.
func NewPagedGraph(store *PageStore, pool *BufferPool) *PagedGraph {
	return &PagedGraph{store: store, pool: pool}
}

// NumNodes implements Accessor.
func (p *PagedGraph) NumNodes() int { return p.store.graph.NumNodes() }

// ForEachArc implements Accessor. Reading a node's adjacency list requires
// its page to be resident, so the access is charged to the buffer pool once
// per call.
func (p *PagedGraph) ForEachArc(id roadnet.NodeID, yield func(roadnet.Arc) bool) {
	p.pool.Access(p.store.PageOf(id))
	p.store.graph.ForEachArc(id, yield)
}

// Graph implements Accessor.
func (p *PagedGraph) Graph() *roadnet.Graph { return p.store.graph }

// Pool returns the buffer pool used for accounting.
func (p *PagedGraph) Pool() *BufferPool { return p.pool }

// Store returns the page layout.
func (p *PagedGraph) Store() *PageStore { return p.store }
