package storage

import "opaque/internal/roadnet"

// Accessor is the graph view the search algorithms run against. It exposes
// adjacency exactly like roadnet.Graph but lets the storage layer observe (and
// charge for) every node expansion. search.* takes an Accessor so the same
// algorithms run both purely in memory (MemoryGraph) and against the paged
// simulation (PagedGraph).
type Accessor interface {
	// NumNodes returns the node count of the underlying graph.
	NumNodes() int
	// Arcs returns the outgoing arcs of id, charging any I/O cost the
	// implementation models.
	Arcs(id roadnet.NodeID) []roadnet.Arc
	// ForEachArc streams the outgoing arcs of id to yield in adjacency
	// order, stopping early when yield returns false, and charges the same
	// I/O as Arcs. This is the arc iteration the search hot path uses: it
	// walks the graph's CSR arc array in place, never materialises an
	// adjacency slice, and — unlike Arcs on buffering implementations such
	// as FilteredGraph — is safe for concurrent use.
	ForEachArc(id roadnet.NodeID, yield func(roadnet.Arc) bool)
	// Graph exposes the underlying road network for result validation and
	// coordinate lookups that are not charged as I/O.
	Graph() *roadnet.Graph
}

// MemoryGraph is an Accessor with no I/O accounting: every access is free.
// It carries a data generation (Versioned; BumpGeneration moves it) so caches
// built over it can be invalidated when the wrapped graph is replaced or
// re-weighted.
type MemoryGraph struct {
	generation
	g *roadnet.Graph
}

// NewMemoryGraph wraps a frozen graph in a free-access Accessor.
func NewMemoryGraph(g *roadnet.Graph) *MemoryGraph { return &MemoryGraph{g: g} }

// NumNodes implements Accessor.
func (m *MemoryGraph) NumNodes() int { return m.g.NumNodes() }

// Arcs implements Accessor.
func (m *MemoryGraph) Arcs(id roadnet.NodeID) []roadnet.Arc { return m.g.Arcs(id) }

// ForEachArc implements Accessor by walking the graph's CSR arc array.
func (m *MemoryGraph) ForEachArc(id roadnet.NodeID, yield func(roadnet.Arc) bool) {
	m.g.ForEachArc(id, yield)
}

// Graph implements Accessor.
func (m *MemoryGraph) Graph() *roadnet.Graph { return m.g }

// PagedGraph is an Accessor that charges a buffer-pool access for the page of
// every node whose adjacency list is read, modelling a disk-resident road
// network laid out by a PageStore. Like MemoryGraph it carries a data
// generation for cache invalidation.
type PagedGraph struct {
	generation
	store *PageStore
	pool  *BufferPool
}

// NewPagedGraph combines a page layout with a buffer pool.
func NewPagedGraph(store *PageStore, pool *BufferPool) *PagedGraph {
	return &PagedGraph{store: store, pool: pool}
}

// NumNodes implements Accessor.
func (p *PagedGraph) NumNodes() int { return p.store.graph.NumNodes() }

// Arcs implements Accessor. Reading a node's adjacency list requires its page
// to be resident, so the access is charged to the buffer pool.
func (p *PagedGraph) Arcs(id roadnet.NodeID) []roadnet.Arc {
	p.pool.Access(p.store.PageOf(id))
	return p.store.graph.Arcs(id)
}

// ForEachArc implements Accessor. The node's page is charged once per
// iteration, exactly like Arcs.
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
