package ch

import (
	"fmt"

	"opaque/internal/pqueue"
	"opaque/internal/roadnet"
)

// BuildCustomizable runs the offline contraction pass over a frozen graph
// and returns the overlay: lazy edge-difference node ordering, then, per
// contracted node, one shortcut for every in/out neighbour pair not already
// joined by an arc. No witness search prunes that set, so the shortcut
// structure is valid for any weight assignment on g's topology, and the
// weight layer (arc costs and unpack children) is derived afterwards by the
// bottom-up customization pass (customize.go) — the same pass that absorbs a
// live weight update in milliseconds instead of a re-contraction.
func BuildCustomizable(g *roadnet.Graph) (*Overlay, error) {
	return BuildCustomizablePartitioned(g, nil)
}

// BuildCustomizablePartitioned is BuildCustomizable with a partition-shaped
// contraction order: nodes are contracted cell by cell (each cell's interior
// nodes form one lazy-ordered group) with every boundary node last. The
// partition shapes only the order — the overlay keeps no trace of it and
// customizes, persists and serves exactly like a flat one. The flat order
// yields fewer shortcuts and faster tables; this variant remains because the
// fleet of bench/stack.go serves it. p must have been built for g; a nil p
// builds the flat overlay.
func BuildCustomizablePartitioned(g *roadnet.Graph, p *roadnet.Partition) (*Overlay, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("ch: need a non-empty graph to contract")
	}
	if !g.Frozen() {
		return nil, fmt.Errorf("ch: graph must be frozen before contraction")
	}
	if p != nil && len(p.Assignment()) != g.NumNodes() {
		return nil, fmt.Errorf("ch: partition covers %d nodes, graph has %d", len(p.Assignment()), g.NumNodes())
	}
	b := newBuilder(g, p)
	b.contractAll()
	return b.finish(), nil
}

// builder holds the mutable state of one contraction pass: the growing arc
// arena, the dynamic adjacency over it and the contraction bookkeeping.
type builder struct {
	g    *roadnet.Graph
	n    int
	part *roadnet.Partition // nil for an unpartitioned build

	arcs      []arc     // arena: original arcs first, shortcuts appended
	nOriginal int       // seeded original-arc count (arena prefix length)
	out       [][]int32 // per node: arena indices of out-arcs (stale entries allowed)
	in        [][]int32 // per node: arena indices of in-arcs

	contracted []bool
	rank       []int32
	level      []int32
	deleted    []int32 // number of already-contracted neighbours
	order      int32

	// Per-contraction scratch: the minimal in/out neighbour sets of the
	// node being contracted, reused across calls.
	ins  []neighbour
	outs []neighbour

	// simulate caches its result so the contraction that immediately
	// follows a priority recomputation does not enumerate the shortcuts
	// again: simNode is the node pending describes, -1 when stale.
	simNode int32
	pending []pendingShortcut
}

// pendingShortcut is one shortcut a simulated contraction found necessary.
type pendingShortcut struct {
	x, w neighbour
	cost float64
}

// neighbour is one entry of a contraction candidate's minimal neighbour set:
// the cheapest live arc between the contracted node and node id.
type neighbour struct {
	id      int32
	cost    float64
	arenaID int32
}

func newBuilder(g *roadnet.Graph, p *roadnet.Partition) *builder {
	n := g.NumNodes()
	b := &builder{
		g:          g,
		n:          n,
		part:       p,
		out:        make([][]int32, n),
		in:         make([][]int32, n),
		contracted: make([]bool, n),
		rank:       make([]int32, n),
		level:      make([]int32, n),
		deleted:    make([]int32, n),
		simNode:    -1,
	}
	// Seed the arena with the original arcs. Self-loops are dropped: with
	// non-negative costs they can never lie on a shortest path, and keeping
	// them out makes every arena arc connect two distinctly ranked nodes.
	for v := 0; v < n; v++ {
		for _, a := range g.Arcs(roadnet.NodeID(v)) {
			if a.To == roadnet.NodeID(v) {
				continue
			}
			idx := int32(len(b.arcs))
			b.arcs = append(b.arcs, arc{from: int32(v), to: int32(a.To), childA: -1, childB: -1, cost: a.Cost})
			b.out[v] = append(b.out[v], idx)
			b.in[a.To] = append(b.in[a.To], idx)
		}
	}
	b.nOriginal = len(b.arcs)
	return b
}

// contractAll orders and contracts every node. Without a partition every
// node competes in one lazy-ordered queue; with one, each cell's interior
// nodes form their own group contracted to completion before the next cell
// starts, and all boundary nodes come last.
func (b *builder) contractAll() {
	p := b.part
	if p == nil {
		group := make([]int32, b.n)
		for v := range group {
			group[v] = int32(v)
		}
		b.contractGroup(group)
		return
	}
	var group []int32
	for c := 0; c < p.NumCells(); c++ {
		group = group[:0]
		for _, v := range p.CellNodes(c) {
			if !p.IsBoundary(v) {
				group = append(group, int32(v))
			}
		}
		b.contractGroup(group)
	}
	group = group[:0]
	for v := 0; v < b.n; v++ {
		if p.IsBoundary(roadnet.NodeID(v)) {
			group = append(group, int32(v))
		}
	}
	b.contractGroup(group)
}

// contractGroup orders and contracts the given nodes. Ordering is lazy: the
// queue holds possibly stale priorities; the top node's priority is
// recomputed on pop and the node is re-queued if it no longer belongs at the
// front.
func (b *builder) contractGroup(nodes []int32) {
	if len(nodes) == 0 {
		return
	}
	queue := pqueue.NewDenseHeap(b.n)
	for _, v := range nodes {
		queue.Push(v, b.priority(v))
	}
	last := int32(-1)
	for !queue.Empty() {
		it := queue.Pop()
		v := it.Value
		p := b.priority(v)
		// Re-queue when the recomputed priority falls behind the next
		// candidate — unless v was just re-queued, which guards against
		// livelock between candidates with oscillating equal priorities.
		if !queue.Empty() && p > queue.Peek().Priority && v != last {
			queue.Push(v, p)
			last = v
			continue
		}
		last = -1
		b.contract(v)
	}
}

// priority returns the lazy ordering key for v: a blend of edge difference
// (shortcuts the contraction would insert minus arcs it removes), the number
// of already-contracted neighbours, and v's current level. Lower contracts
// earlier.
func (b *builder) priority(v int32) float64 {
	shortcuts := b.simulate(v)
	degree := len(b.ins) + len(b.outs)
	return float64(2*(shortcuts-degree) + int(b.deleted[v]) + int(b.level[v]))
}

// gatherNeighbours fills b.ins and b.outs with the minimal live neighbour
// sets of v: per distinct uncontracted neighbour, the cheapest arena arc.
func (b *builder) gatherNeighbours(v int32) {
	b.ins = b.ins[:0]
	b.outs = b.outs[:0]
	for _, ai := range b.in[v] {
		a := &b.arcs[ai]
		if b.contracted[a.from] || a.from == v {
			continue
		}
		b.ins = addMinNeighbour(b.ins, a.from, a.cost, ai)
	}
	for _, ai := range b.out[v] {
		a := &b.arcs[ai]
		if b.contracted[a.to] || a.to == v {
			continue
		}
		b.outs = addMinNeighbour(b.outs, a.to, a.cost, ai)
	}
}

// addMinNeighbour inserts (id, cost) into set, keeping only the cheapest arc
// per neighbour id. Neighbour sets are tiny (road-network degrees), so the
// linear scan beats any map.
func addMinNeighbour(set []neighbour, id int32, cost float64, arenaID int32) []neighbour {
	for i := range set {
		if set[i].id == id {
			if cost < set[i].cost {
				set[i].cost = cost
				set[i].arenaID = arenaID
			}
			return set
		}
	}
	return append(set, neighbour{id: id, cost: cost, arenaID: arenaID})
}

// contract removes v from the remaining graph: inserts its shortcuts, stamps
// v's rank, and updates neighbour levels and deleted-neighbour counts. The
// shortcut set comes from the simulate cache when the preceding priority
// recomputation already enumerated it — in contractAll that is always the
// case.
func (b *builder) contract(v int32) {
	if b.simNode != v {
		b.simulate(v)
	}
	for i := range b.pending {
		b.addShortcut(b.pending[i].x, b.pending[i].w, b.pending[i].cost)
	}
	b.simNode = -1
	b.contracted[v] = true
	b.rank[v] = b.order
	b.order++
	bump := func(u int32) {
		b.deleted[u]++
		if b.level[v]+1 > b.level[u] {
			b.level[u] = b.level[v] + 1
		}
	}
	for _, nb := range b.ins {
		bump(nb.id)
	}
	for _, nb := range b.outs {
		// An undirected road segment yields the same neighbour in both
		// sets; only bump nodes not already counted as in-neighbours.
		if !containsNeighbour(b.ins, nb.id) {
			bump(nb.id)
		}
	}
}

func containsNeighbour(set []neighbour, id int32) bool {
	for i := range set {
		if set[i].id == id {
			return true
		}
	}
	return false
}

// simulate enumerates the shortcuts contracting v requires right now into
// b.pending, leaving the graph untouched, and returns their count: every
// in/out neighbour pair (x, w) without an existing live arc x→w. No witness
// search prunes the set, because the structure must preserve distances under
// *any* future weight assignment, and the cheapest witness under one metric
// proves nothing about the next. simulate fills b.ins/b.outs as a side
// effect; contract consumes both.
func (b *builder) simulate(v int32) int {
	b.pending = b.pending[:0]
	b.simNode = v
	b.gatherNeighbours(v)
	for _, x := range b.ins {
		for _, w := range b.outs {
			if w.id == x.id || b.arcExists(x.id, w.id) {
				continue
			}
			b.pending = append(b.pending, pendingShortcut{x: x, w: w, cost: x.cost + w.cost})
		}
	}
	return len(b.pending)
}

// arcExists reports whether any arena arc x→w exists, whatever its cost.
// Customizable contraction needs existence only: the customization pass
// assigns the final weight as a minimum over all lower triangles, so one arc
// per pair suffices and parallels would only inflate the arena.
func (b *builder) arcExists(x, w int32) bool {
	for _, ai := range b.out[x] {
		if b.arcs[ai].to == w {
			return true
		}
	}
	return false
}

// addShortcut appends the shortcut x→w via the contracted node to the arena.
// simulate only proposes pairs with no arc x→w yet, so it never duplicates
// one.
func (b *builder) addShortcut(x, w neighbour, cost float64) {
	idx := int32(len(b.arcs))
	b.arcs = append(b.arcs, arc{from: x.id, to: w.id, childA: x.arenaID, childB: w.arenaID, cost: cost})
	b.out[x.id] = append(b.out[x.id], idx)
	b.in[w.id] = append(b.in[w.id], idx)
}

// finish freezes the builder's output into an immutable Overlay. The
// contraction above fixed only the structure; the weight layer (arc costs
// and unpack children) is derived here by the same customization pass a
// live weight update reruns.
func (b *builder) finish() *Overlay {
	o := &Overlay{
		n:         b.n,
		nOriginal: b.nOriginal,
		rank:      b.rank,
		level:     b.level,
		arcs:      b.arcs,
		graphArcs: b.g.NumArcs(),
		checksum:  GraphChecksum(b.g),
		topoSum:   b.g.TopologyChecksum(),
	}
	o.buildCSR()
	o.customizeInPlace(b.g)
	return o
}
