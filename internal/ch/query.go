package ch

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// Engine answers point shortest-path queries on an Overlay with two upward
// searches: the forward search from s relaxes only overlay arcs toward
// higher-ranked nodes, the backward search from t only reversed arcs from
// higher-ranked nodes, and the two meet at the apex of the optimal up-down
// path. On a customizable overlay both searches walk elimination-tree
// ancestors on a pooled pair of label stores (etree.go); on a witness-pruned
// one they run as a bidirectional Dijkstra, each direction on an
// epoch-stamped search.Workspace checked out of the engine's pool. Either
// way a distance query performs zero heap allocations in steady state; path
// queries additionally unpack the shortcut chain into the original-arc
// route.
//
// Engine implements search.PointEngine and is safe for concurrent use: the
// overlay is read-only and all per-query state is pooled.
type Engine struct {
	o    *Overlay
	pool *search.WorkspacePool
	// verified memoises the last accessor graph proven (by checksum) to be
	// the one the overlay was built from, so the O(arcs) Matches check runs
	// once per graph instead of once per query.
	verified atomic.Pointer[roadnet.Graph]
	// gen is the accessor data generation the overlay's weights are valid
	// for (search.Generational): the installer binds it with BindGeneration
	// so the processor refuses the engine once the accessor's generation
	// moves past it, without waiting for the checksum check to fail.
	gen atomic.Uint64
}

// NewEngine returns a query engine over o drawing workspaces from wp. A nil
// wp gets a private pool; servers pass their own so CH queries, SSMD
// searches and cached trees all recycle the same workspaces. Queries on a
// customizable overlay draw no workspace.
func NewEngine(o *Overlay, wp *search.WorkspacePool) *Engine {
	if wp == nil {
		wp = search.NewWorkspacePool()
	}
	return &Engine{o: o, pool: wp}
}

// Overlay returns the overlay the engine queries.
func (e *Engine) Overlay() *Overlay { return e.o }

// BindGeneration records the accessor data generation the overlay's weights
// were customized for. Servers call it when installing or swapping the
// engine; see search.Generational.
func (e *Engine) BindGeneration(gen uint64) { e.gen.Store(gen) }

// Generation implements search.Generational.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// AppendShortestPath implements search.PointEngine: the full shortest path
// from source to dest with shortcuts unpacked, appended to dst (nothing, at
// cost +Inf, when dest is unreachable). CH reads the preprocessed index, not
// the graph — which is the whole point — so the accessor must present exactly
// the arcs the overlay was contracted over: its underlying graph is
// checksum-verified against the overlay (once per graph, memoised), and
// arc-filtering accessors (storage.FilteredGraph), whose effective arc set
// differs from the graph they report, are rejected outright. acc may be nil
// for direct callers that take responsibility for the binding themselves.
func (e *Engine) AppendShortestPath(dst []roadnet.NodeID, acc storage.Accessor, source, dest roadnet.NodeID) ([]roadnet.NodeID, float64, search.Stats, error) {
	if acc != nil {
		if _, filtered := acc.(*storage.FilteredGraph); filtered {
			return dst, 0, search.Stats{}, fmt.Errorf("ch: overlay cannot serve a filtered accessor — the hierarchy was contracted over the unfiltered arcs; query the filtered graph with the flat searches instead")
		}
		g := acc.Graph()
		if e.verified.Load() != g {
			if err := e.o.Matches(g); err != nil {
				return dst, 0, search.Stats{}, fmt.Errorf("ch: accessor does not present the overlay's graph (%v): %w", err, search.ErrStaleEngine)
			}
			e.verified.Store(g)
		}
	}
	return e.query(dst, source, dest, true)
}

// Path returns the shortest path from source to dest with shortcuts
// unpacked, or an empty path when dest is unreachable.
func (e *Engine) Path(source, dest roadnet.NodeID) (search.Path, search.Stats, error) {
	nodes, d, stats, err := e.query(nil, source, dest, true)
	if err != nil || len(nodes) == 0 {
		return search.Path{}, stats, err
	}
	return search.Path{Nodes: nodes, Cost: d}, stats, nil
}

// Distance returns only the shortest-path distance from source to dest
// (+Inf when unreachable). It skips meeting-node bookkeeping for the path
// and performs no heap allocation in steady state.
func (e *Engine) Distance(source, dest roadnet.NodeID) (float64, search.Stats, error) {
	_, d, stats, err := e.query(nil, source, dest, false)
	return d, stats, err
}

// query is the point search shared by the path and distance faces: it
// returns the distance (+Inf when unreachable) and, when needPath is set, dst
// extended by the unpacked route. Customizable overlays take walkQuery; the
// rest of this function is the bidirectional heap search.
func (e *Engine) query(dst []roadnet.NodeID, source, dest roadnet.NodeID, needPath bool) ([]roadnet.NodeID, float64, search.Stats, error) {
	o := e.o
	var stats search.Stats
	if !validNode(o, source) {
		return dst, 0, stats, fmt.Errorf("ch: invalid source node %d", source)
	}
	if !validNode(o, dest) {
		return dst, 0, stats, fmt.Errorf("ch: invalid destination node %d", dest)
	}
	if source == dest {
		if needPath {
			dst = append(dst, source)
		}
		return dst, 0, stats, nil
	}
	if o.etree != nil {
		return o.walkQuery(dst, source, dest, needPath)
	}

	fw := e.pool.Get(o.n)
	defer fw.Release()
	bw := e.pool.Get(o.n)
	defer bw.Release()

	fw.Label(source, 0, roadnet.InvalidNode)
	fw.Heap().Push(int32(source), 0)
	bw.Label(dest, 0, roadnet.InvalidNode)
	bw.Heap().Push(int32(dest), 0)
	stats.QueueOps += 2

	best := math.Inf(1)
	meet := roadnet.InvalidNode
	fDone, bDone := false, false
	for !fDone || !bDone {
		if f := fw.Heap().Len() + bw.Heap().Len(); f > stats.MaxFrontier {
			stats.MaxFrontier = f
		}
		if !fDone {
			fDone = !o.step(fw, bw, o.fwdOff, o.fwdTo, o.fwdCost, &best, &meet, &stats)
		}
		if !bDone {
			bDone = !o.step(bw, fw, o.bwdOff, o.bwdTo, o.bwdCost, &best, &meet, &stats)
		}
	}

	if meet == roadnet.InvalidNode || !needPath {
		return dst, best, stats, nil
	}
	start := len(dst)
	dst, err := o.appendRoute(dst, fw, bw, source, dest, meet)
	if err != nil {
		return dst[:start], 0, stats, err
	}
	return dst, best, stats, nil
}

// pointLabels recycles the forward and backward label stores of
// elimination-tree point queries. Like mtmStates it lives outside the engine
// and holds nothing of an overlay.
var pointLabels = sync.Pool{New: func() any { return new([2]treeLabels) }}

// walkQuery is query on a customizable overlay: the forward search walks
// the source's elimination-tree ancestors, the backward search the
// destination's, and the shortest up-down path meets at a common ancestor —
// the minimum of df + db over the destination's chain, where df is finite
// only on the source's.
func (o *Overlay) walkQuery(dst []roadnet.NodeID, source, dest roadnet.NodeID, needPath bool) ([]roadnet.NodeID, float64, search.Stats, error) {
	var stats search.Stats
	lab := pointLabels.Get().(*[2]treeLabels)
	defer pointLabels.Put(lab)
	f, b := &lab[0], &lab[1]
	f.grow(o.n)
	b.grow(o.n)
	o.walkUp(f, source, o.fwdOff, o.fwdTo, o.fwdCost, o.fwdArc, &stats)
	o.walkUp(b, dest, o.bwdOff, o.bwdTo, o.bwdCost, o.bwdArc, &stats)
	best, meet := math.Inf(1), roadnet.InvalidNode
	for u := int32(dest); u >= 0; u = o.etree[u] {
		if d := f.dist[u] + b.dist[u]; d < best {
			best, meet = d, roadnet.NodeID(u)
		}
		b.dist[u] = math.Inf(1)
	}
	o.clearChain(f, source)
	if meet == roadnet.InvalidNode || !needPath {
		return dst, best, stats, nil
	}

	// Forward half: the relaxing arcs meet→source, stacked and unpacked in
	// source→meet order. Backward half: the relaxing arcs already run
	// meet→dest in travel order.
	start := len(dst)
	var chainBuf [32]int32
	chain := chainBuf[:0]
	for at := meet; at != source; {
		a := f.via[at]
		if a < 0 {
			return dst, 0, stats, fmt.Errorf("ch: internal error: forward walk does not reach source %d", source)
		}
		chain = append(chain, a)
		at = roadnet.NodeID(o.arcs[a].from)
	}
	dst = append(dst, source)
	for i := len(chain) - 1; i >= 0; i-- {
		dst = o.appendArc(dst, chain[i])
	}
	for at := meet; at != dest; {
		a := b.via[at]
		if a < 0 {
			return dst[:start], 0, stats, fmt.Errorf("ch: internal error: backward walk does not reach destination %d", dest)
		}
		dst = o.appendArc(dst, a)
		at = roadnet.NodeID(o.arcs[a].to)
	}
	return dst, best, stats, nil
}

// step advances one direction of the bidirectional search by one settled
// node: pop the frontier minimum of this, relax its upward arcs (the CSR
// triple passed in selects the direction), and tighten best/meet against
// other's label on the settled node. It returns false once this direction is
// exhausted — queue empty or frontier minimum at least best, the standard CH
// stopping rule.
func (o *Overlay) step(this, other *search.Workspace,
	off []int32, heads []roadnet.NodeID, costs []float64,
	best *float64, meet *roadnet.NodeID, stats *search.Stats) bool {
	h := this.Heap()
	if h.Empty() || h.Peek().Priority >= *best {
		return false
	}
	item := h.Pop()
	u := roadnet.NodeID(item.Value)
	if item.Priority > this.DistOf(u) {
		return true // stale entry; the direction is still live
	}
	stats.SettledNodes++
	// An up-down path through u costs df(u)+db(u); other's label may still
	// be tentative, but a tentative label is realised by some up-path, so
	// the candidate is always valid — and the optimum is guaranteed to be
	// seen because both directions run until their frontier passes best.
	if d := other.DistOf(u); item.Priority+d < *best {
		*best = item.Priority + d
		*meet = u
	}
	for i := off[u]; i < off[u+1]; i++ {
		stats.RelaxedArcs++
		head := heads[i]
		nd := item.Priority + costs[i]
		if nd < this.DistOf(head) {
			this.Label(head, nd, u)
			h.Push(int32(head), nd)
			stats.QueueOps++
		}
	}
	return true
}

// appendRoute appends the full original-arc path source→…→meet→…→dest
// rebuilt from the two search trees to dst, expanding every shortcut through
// the arena.
func (o *Overlay) appendRoute(dst []roadnet.NodeID, fw, bw *search.Workspace, source, dest, meet roadnet.NodeID) ([]roadnet.NodeID, error) {
	// Forward half: the up-arcs meet→source come off fw's parents backwards,
	// so their arena indices are stacked and unpacked in source→meet order.
	var chainBuf [32]int32
	chain := chainBuf[:0]
	at := meet
	for p := fw.ParentOf(at); p != roadnet.InvalidNode; at, p = p, fw.ParentOf(p) {
		idx := o.findArc(o.fwdOff, o.fwdTo, o.fwdCost, o.fwdArc, p, at, fw.DistOf(p), fw.DistOf(at))
		if idx < 0 {
			return dst, fmt.Errorf("ch: internal error: no upward arc %d→%d on forward path", p, at)
		}
		chain = append(chain, idx)
	}
	if at != source {
		return dst, fmt.Errorf("ch: internal error: forward search tree does not reach source %d", source)
	}
	dst = append(dst, source)
	for i := len(chain) - 1; i >= 0; i-- {
		dst = o.appendArc(dst, chain[i])
	}

	// Backward half: bw's parent chain already runs meet→dest in original
	// travel direction; each step (u, parent) is the original arc u→parent,
	// stored in parent's upward in-arcs keyed by head u.
	for at := meet; at != dest; {
		next := bw.ParentOf(at)
		if next == roadnet.InvalidNode {
			return dst, fmt.Errorf("ch: internal error: backward search tree does not reach destination %d", dest)
		}
		idx := o.findArc(o.bwdOff, o.bwdTo, o.bwdCost, o.bwdArc, next, at, bw.DistOf(next), bw.DistOf(at))
		if idx < 0 {
			return dst, fmt.Errorf("ch: internal error: no upward arc %d→%d on backward path", at, next)
		}
		dst = o.appendArc(dst, idx)
		at = next
	}
	return dst, nil
}

// findArc locates the arena index of the CSR arc at owner whose head is head
// and whose cost closes the labelled distance gap dOwner→dHead exactly — the
// arc the search relaxed when it labelled the child, recovered without
// storing per-node arc provenance. owner is the CSR node the arc is stored
// under (the tail in the forward view, the original head in the backward
// view).
func (o *Overlay) findArc(off []int32, heads []roadnet.NodeID, costs []float64, arcIDs []int32,
	owner, head roadnet.NodeID, dOwner, dHead float64) int32 {
	for i := off[owner]; i < off[owner+1]; i++ {
		if heads[i] == head && dOwner+costs[i] == dHead {
			return arcIDs[i]
		}
	}
	return -1
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
