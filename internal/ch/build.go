package ch

import (
	"fmt"
	"math"

	"opaque/internal/pqueue"
	"opaque/internal/roadnet"
)

// BuildConfig tunes the offline contraction pass. The zero value is
// normalised to DefaultBuildConfig by Build.
type BuildConfig struct {
	// WitnessSettleLimit bounds every witness search to this many settled
	// nodes. A search that exhausts the budget before ruling a shortcut out
	// inserts it anyway — a correct but possibly redundant arc — so the
	// limit trades overlay size for preprocessing time. Values below 1 use
	// the default (64, plenty on road-shaped graphs whose witness paths are
	// short detours). Ignored when Customizable is set (no witness searches
	// run at all).
	WitnessSettleLimit int
	// Customizable switches the contraction to metric-independent mode:
	// every in/out neighbour pair of a contracted node gets a shortcut
	// (unless an arc between the pair already exists), with no witness
	// pruning, and the arc weights are derived afterwards by the bottom-up
	// customization pass (customize.go). The overlay carries more shortcuts
	// than a witness-pruned one, but its shortcut *structure* is valid for
	// any weight assignment on the same topology — a live weight update is
	// absorbed by Overlay.Recustomize in milliseconds instead of a full
	// re-contraction.
	Customizable bool
	// Partition makes the contraction partition-aware: nodes are contracted
	// cell by cell (each cell's interior nodes form one lazy-ordered group)
	// with every boundary node last, so each cell's interiors occupy a
	// contiguous rank range below all boundary ranks. The overlay then
	// classifies every arena arc into a per-cell weight layer or the
	// boundary top layer (partition.go). Combined with Customizable the
	// full customization pass then runs one goroutine per cell, and weight
	// updates report which cells they reached. The partition must have been
	// built for the same graph being contracted.
	Partition *roadnet.Partition
}

// DefaultBuildConfig returns the contraction parameters used when none are
// given.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{WitnessSettleLimit: 64}
}

// Build runs the offline contraction pass over a frozen graph and returns
// the overlay, using DefaultBuildConfig. Preprocessing cost is roughly
// O(n · witness budget) heap operations; on the repository's synthetic road
// networks it contracts tens of thousands of nodes per second.
func Build(g *roadnet.Graph) (*Overlay, error) {
	return BuildWithConfig(g, DefaultBuildConfig())
}

// BuildCustomizable runs the metric-independent contraction pass (see
// BuildConfig.Customizable): the returned overlay answers queries exactly
// like a witness-pruned one, and additionally supports Recustomize after
// live weight updates.
func BuildCustomizable(g *roadnet.Graph) (*Overlay, error) {
	cfg := DefaultBuildConfig()
	cfg.Customizable = true
	return BuildWithConfig(g, cfg)
}

// BuildCustomizablePartitioned runs the metric-independent contraction pass
// with partition-aware node ordering (see BuildConfig.Partition): the
// returned overlay additionally customizes its cells in parallel and
// attributes weight updates to cells. p must have been built for g.
func BuildCustomizablePartitioned(g *roadnet.Graph, p *roadnet.Partition) (*Overlay, error) {
	cfg := DefaultBuildConfig()
	cfg.Customizable = true
	cfg.Partition = p
	return BuildWithConfig(g, cfg)
}

// BuildWithConfig is Build with explicit contraction parameters.
func BuildWithConfig(g *roadnet.Graph, cfg BuildConfig) (*Overlay, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("ch: need a non-empty graph to contract")
	}
	if !g.Frozen() {
		return nil, fmt.Errorf("ch: graph must be frozen before contraction")
	}
	if cfg.WitnessSettleLimit < 1 {
		cfg.WitnessSettleLimit = DefaultBuildConfig().WitnessSettleLimit
	}
	if p := cfg.Partition; p != nil && len(p.Assignment()) != g.NumNodes() {
		return nil, fmt.Errorf("ch: partition covers %d nodes, graph has %d", len(p.Assignment()), g.NumNodes())
	}
	b := newBuilder(g, cfg)
	b.contractAll()
	return b.finish(), nil
}

// builder holds the mutable state of one contraction pass: the growing arc
// arena, the dynamic adjacency over it, the contraction bookkeeping and the
// epoch-stamped witness-search scratch arrays.
type builder struct {
	g   *roadnet.Graph
	n   int
	cfg BuildConfig

	arcs      []arc     // arena: original arcs first, shortcuts appended
	nOriginal int       // seeded original-arc count (arena prefix length)
	out       [][]int32 // per node: arena indices of out-arcs (stale entries allowed)
	in        [][]int32 // per node: arena indices of in-arcs

	contracted []bool
	rank       []int32
	level      []int32
	deleted    []int32 // number of already-contracted neighbours
	order      int32

	// Witness-search scratch, epoch-stamped like search.Workspace so each
	// of the O(n) witness runs resets in O(1).
	wdist  []float64
	wstamp []uint32
	wepoch uint32
	wheap  *pqueue.DenseHeap

	// Per-contraction scratch: the minimal in/out neighbour sets of the
	// node being contracted, reused across calls.
	ins  []neighbour
	outs []neighbour

	// simulate caches its result so the contraction that immediately
	// follows a priority recomputation does not repeat the witness
	// searches: simNode is the node pending describes, -1 when stale.
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

func newBuilder(g *roadnet.Graph, cfg BuildConfig) *builder {
	n := g.NumNodes()
	b := &builder{
		g:          g,
		n:          n,
		cfg:        cfg,
		out:        make([][]int32, n),
		in:         make([][]int32, n),
		contracted: make([]bool, n),
		rank:       make([]int32, n),
		level:      make([]int32, n),
		deleted:    make([]int32, n),
		wdist:      make([]float64, n),
		wstamp:     make([]uint32, n),
		wheap:      pqueue.NewDenseHeap(n),
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
// starts, and all boundary nodes come last — giving every cell a contiguous
// rank range below every boundary rank, which is the layering the
// cell-parallel customization pass depends on.
func (b *builder) contractAll() {
	p := b.cfg.Partition
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

// contract removes v from the remaining graph: inserts the witnessed
// shortcuts, stamps v's rank, and updates neighbour levels and
// deleted-neighbour counts. The shortcut set comes from the simulate cache
// when the preceding priority recomputation already paid for the witness
// searches — in contractAll that is always the case.
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
// b.pending, leaving the graph untouched, and returns their count. In the
// default (witness-pruned) mode those are the pairs (x, w) of in/out
// neighbours whose best path through v is not witnessed by a path avoiding
// v. In customizable mode no witness searches run: every pair without an
// existing live arc x→w needs a shortcut, because the structure must
// preserve distances under *any* future weight assignment, and the cheapest
// witness under one metric proves nothing about the next. simulate fills
// b.ins/b.outs as a side effect; contract consumes both.
func (b *builder) simulate(v int32) int {
	b.pending = b.pending[:0]
	b.simNode = v
	b.gatherNeighbours(v)
	if len(b.ins) == 0 || len(b.outs) == 0 {
		return 0
	}
	if b.cfg.Customizable {
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
	maxOut := 0.0
	for _, nb := range b.outs {
		if nb.cost > maxOut {
			maxOut = nb.cost
		}
	}
	for _, x := range b.ins {
		b.runWitness(x.id, v, x.cost+maxOut)
		for _, w := range b.outs {
			if w.id == x.id {
				continue
			}
			through := x.cost + w.cost
			if b.witnessDist(w.id) <= through {
				continue // a path avoiding v is at least as good
			}
			b.pending = append(b.pending, pendingShortcut{x: x, w: w, cost: through})
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

// addShortcut inserts the shortcut x→w with the given cost unless a live arc
// x→w that is at least as cheap already exists. The more expensive parallel
// arc, when one exists, is left in place: parallels are harmless to the
// query (Push degrades to a decrease-key) and may be referenced as unpack
// children of earlier shortcuts.
func (b *builder) addShortcut(x, w neighbour, cost float64) {
	for _, ai := range b.out[x.id] {
		a := &b.arcs[ai]
		if a.to == w.id && a.cost <= cost {
			return
		}
	}
	idx := int32(len(b.arcs))
	b.arcs = append(b.arcs, arc{from: x.id, to: w.id, childA: x.arenaID, childB: w.arenaID, cost: cost})
	b.out[x.id] = append(b.out[x.id], idx)
	b.in[w.id] = append(b.in[w.id], idx)
}

// runWitness grows a bounded Dijkstra ball from source on the live graph
// with v excluded, stopping at the witness budget or once the frontier
// passes maxCost. Labels are epoch-stamped; witnessDist reads them.
func (b *builder) runWitness(source, excluded int32, maxCost float64) {
	if b.wepoch == ^uint32(0) {
		for i := range b.wstamp {
			b.wstamp[i] = 0
		}
		b.wepoch = 0
	}
	b.wepoch++
	b.wheap.Reset(b.n)
	b.wdist[source] = 0
	b.wstamp[source] = b.wepoch
	b.wheap.Push(source, 0)
	settled := 0
	for !b.wheap.Empty() {
		it := b.wheap.Pop()
		if it.Priority > maxCost {
			break
		}
		u := it.Value
		if it.Priority > b.wdist[u] {
			continue // stale entry
		}
		settled++
		if settled > b.cfg.WitnessSettleLimit {
			break
		}
		for _, ai := range b.out[u] {
			a := &b.arcs[ai]
			if a.to == excluded || b.contracted[a.to] {
				continue
			}
			nd := it.Priority + a.cost
			if b.wstamp[a.to] != b.wepoch || nd < b.wdist[a.to] {
				b.wdist[a.to] = nd
				b.wstamp[a.to] = b.wepoch
				b.wheap.Push(a.to, nd)
			}
		}
	}
}

// witnessDist returns the latest witness search's distance bound for w
// (+Inf when w was never labelled). Labelled-but-unsettled values are upper
// bounds, which is exactly the conservative direction: an upper bound that
// already beats the shortcut proves the witness.
func (b *builder) witnessDist(w int32) float64 {
	if b.wstamp[w] != b.wepoch {
		return math.Inf(1)
	}
	return b.wdist[w]
}

// finish freezes the builder's output into an immutable Overlay. For a
// customizable build the contraction above fixed only the structure; the
// weight layer (arc costs and unpack children) is derived here by the same
// customization pass a live weight update reruns.
func (b *builder) finish() *Overlay {
	o := &Overlay{
		n:            b.n,
		nOriginal:    b.nOriginal,
		rank:         b.rank,
		level:        b.level,
		arcs:         b.arcs,
		graphArcs:    b.g.NumArcs(),
		checksum:     GraphChecksum(b.g),
		topoSum:      b.g.TopologyChecksum(),
		customizable: b.cfg.Customizable,
	}
	if p := b.cfg.Partition; p != nil {
		cellOf := append([]int32(nil), p.Assignment()...)
		cp, err := deriveChPartition(b.n, b.rank, b.arcs, b.nOriginal, cellOf, p.NumCells())
		if err != nil {
			// The contraction order above guarantees the layering invariants;
			// a violation here is a builder bug, not bad input.
			panic(err)
		}
		o.part = cp
	}
	o.buildCSR()
	if o.customizable {
		o.customizeInPlace(b.g)
	}
	return o
}
