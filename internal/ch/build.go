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
//
// Cost per node v, with d(u) the number of arcs between u and nodes not yet
// contracted: each priority evaluation of v (the lazy queue asks a few
// times) takes O(d(v)² + Σ d(x)) over v's in-neighbours x; contracting v
// takes O(Σ d(u) + |in(v)|·|out(v)|) over all its neighbours u, for the
// shortcut pairs and for unlinking v from their lists. Arcs into contracted
// nodes are dropped as each node goes, so none of this grows with how many
// neighbours were contracted before; the total is set by the live degrees,
// which the shortcuts of a road map's top levels make large.
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

	arcs      []arc   // arena: original arcs first, shortcuts appended
	nOriginal int     // seeded original-arc count (arena prefix length)
	out       [][]adj // per uncontracted node: out-arcs to uncontracted nodes
	in        [][]adj // per uncontracted node: in-arcs from uncontracted nodes

	rank    []int32
	level   []int32
	deleted []int32 // number of already-contracted neighbours
	order   int32
	queue   *pqueue.DenseHeap // lazy ordering queue, reset per group

	// Per-contraction scratch: the minimal in/out neighbour sets of the
	// node last prioritised, reused across calls.
	ins  []neighbour
	outs []neighbour

	// Two stamped node sets: node u is in a set while its entry equals
	// the stamp the set was filled under. A fresh stamp empties both in
	// O(1), and membership is one probe instead of a scan of a list.
	mark  []uint32
	seen  []uint32
	stamp uint32
}

// adj is one entry of a node's dynamic adjacency: the node at the other end
// of arena arc arc. Carrying the node beside the arc lets the hot walks over
// adjacency lists read them front to back without visiting the arena.
type adj struct {
	node, arc int32
}

// neighbour is one entry of a contraction candidate's minimal neighbour set:
// the cheapest live arc between the contracted node and node id.
type neighbour struct {
	cost    float64
	id      int32
	arenaID int32
}

func newBuilder(g *roadnet.Graph, p *roadnet.Partition) *builder {
	n := g.NumNodes()
	b := &builder{
		g:       g,
		n:       n,
		part:    p,
		out:     make([][]adj, n),
		in:      make([][]adj, n),
		rank:    make([]int32, n),
		level:   make([]int32, n),
		deleted: make([]int32, n),
		queue:   pqueue.NewDenseHeap(n),
		mark:    make([]uint32, n),
		seen:    make([]uint32, n),
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
			b.out[v] = append(b.out[v], adj{node: int32(a.To), arc: idx})
			b.in[a.To] = append(b.in[a.To], adj{node: int32(v), arc: idx})
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
	queue := b.queue
	queue.Reset(b.n)
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
// earlier. It leaves v's neighbour sets in b.ins/b.outs for contract.
func (b *builder) priority(v int32) float64 {
	b.gatherNeighbours(v)
	shortcuts := b.countShortcuts()
	degree := len(b.ins) + len(b.outs)
	return float64(2*(shortcuts-degree) + int(b.deleted[v]) + int(b.level[v]))
}

// gatherNeighbours fills b.ins and b.outs with the minimal live neighbour
// sets of v: per distinct uncontracted neighbour, the cheapest arena arc.
// The arena holds no self-loops, so v is never its own neighbour.
func (b *builder) gatherNeighbours(v int32) {
	b.ins = b.ins[:0]
	b.outs = b.outs[:0]
	for _, e := range b.in[v] {
		b.ins = addMinNeighbour(b.ins, e.node, b.arcs[e.arc].cost, e.arc)
	}
	for _, e := range b.out[v] {
		b.outs = addMinNeighbour(b.outs, e.node, b.arcs[e.arc].cost, e.arc)
	}
}

// without drops the entries for node v from an adjacency list, in place,
// and returns the rest in their original order.
func without(list []adj, v int32) []adj {
	kept := list[:0]
	for _, e := range list {
		if e.node != v {
			kept = append(kept, e)
		}
	}
	return kept
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

// fresh returns a stamp that no entry of mark or seen holds yet, emptying
// both sets.
func (b *builder) fresh() uint32 {
	if b.stamp == ^uint32(0) {
		// Stamp wrap: clear once per 2^32 stamps so no old entry collides.
		clear(b.mark)
		clear(b.seen)
		b.stamp = 0
	}
	b.stamp++
	return b.stamp
}

// countShortcuts returns how many shortcuts contracting the node whose
// neighbour sets b.ins/b.outs hold would insert: one per in/out pair (x, w),
// x ≠ w, not yet joined by an arc x→w. Existence is all that counts: the
// customization pass assigns the final weight as a minimum over all lower
// triangles, so one arc per pair suffices and parallels would only inflate
// the arena. No witness search prunes the set, because the structure must
// preserve distances under *any* future weight assignment, and the cheapest
// witness under one metric proves nothing about the next.
//
// The count walks each in-neighbour's out-list once, so it costs
// O(Σ_x |out(x)|) rather than one probe per pair: the ordering queue asks
// for it several times per node, contract enumerates the pairs once.
func (b *builder) countShortcuts() int {
	isOut := b.fresh()
	for _, w := range b.outs {
		b.mark[w.id] = isOut
	}
	count := 0
	for _, x := range b.ins {
		count += len(b.outs)
		if b.mark[x.id] == isOut {
			count-- // the pair (x, x) needs no shortcut
		}
		// seen dedups parallel original arcs x→w, which join one pair.
		joined := b.fresh()
		for _, e := range b.out[x.id] {
			if b.mark[e.node] == isOut && b.seen[e.node] != joined {
				b.seen[e.node] = joined
				count--
			}
		}
	}
	return count
}

// contract removes v from the remaining graph: inserts the shortcuts
// countShortcuts counted, unlinks v from its neighbours' adjacency lists,
// stamps v's rank, and updates neighbour levels and deleted-neighbour
// counts. b.ins/b.outs must hold v's neighbour sets, as the priority(v) call
// that let v leave the queue left them.
func (b *builder) contract(v int32) {
	for _, x := range b.ins {
		joined := b.fresh()
		for _, e := range b.out[x.id] {
			b.mark[e.node] = joined
		}
		for _, w := range b.outs {
			if w.id != x.id && b.mark[w.id] != joined {
				b.addShortcut(x, w)
			}
		}
	}
	// Every arc naming v sits in the list of a node in b.ins or b.outs.
	// Dropping them keeps the other arcs in order, so each later walk sees
	// the live arcs in arena order and costs the live degree, not every arc
	// the node ever had.
	for _, x := range b.ins {
		b.out[x.id] = without(b.out[x.id], v)
	}
	for _, w := range b.outs {
		b.in[w.id] = without(b.in[w.id], v)
	}
	b.out[v], b.in[v] = nil, nil
	b.rank[v] = b.order
	b.order++
	bump := func(u int32) {
		b.deleted[u]++
		if b.level[v]+1 > b.level[u] {
			b.level[u] = b.level[v] + 1
		}
	}
	isIn := b.fresh()
	for _, nb := range b.ins {
		b.mark[nb.id] = isIn
		bump(nb.id)
	}
	for _, nb := range b.outs {
		// An undirected road segment yields the same neighbour in both
		// sets; only bump nodes not already counted as in-neighbours.
		if b.mark[nb.id] != isIn {
			bump(nb.id)
		}
	}
}

// addShortcut appends the shortcut x→w via the contracted node to the arena.
// contract only adds pairs with no arc x→w yet, so it never duplicates one.
func (b *builder) addShortcut(x, w neighbour) {
	idx := int32(len(b.arcs))
	b.arcs = append(b.arcs, arc{from: x.id, to: w.id, childA: x.arenaID, childB: w.arenaID, cost: x.cost + w.cost})
	b.out[x.id] = append(b.out[x.id], adj{node: w.id, arc: idx})
	b.in[w.id] = append(b.in[w.id], adj{node: x.id, arc: idx})
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
