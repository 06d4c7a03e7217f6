// Package ch implements a contraction-hierarchies (CH) overlay for the
// OPAQUE road network: an offline preprocessing pass that orders the nodes by
// importance, contracts them in that order while inserting shortcut arcs that
// preserve all shortest-path distances, and a bidirectional online query that
// only ever relaxes arcs leading to more important nodes. On road-shaped
// graphs the upward search spaces are tiny (hundreds of nodes on maps where
// plain Dijkstra settles tens of thousands), which is what lets the
// directions search server answer point queries orders of magnitude faster
// than the flat-graph searches in internal/search — the same offline/online
// trade the OPAQUE paper makes with its CCAM page layout, pushed one level
// further up the stack.
//
// # The pieces
//
//   - Build (build.go) runs the offline pass over a frozen roadnet.Graph:
//     lazy edge-difference node ordering, witness-search-guarded shortcut
//     insertion, node levels. The result is an Overlay.
//   - Overlay (this file) is the immutable preprocessed index: the node
//     ranks, the upward forward/backward CSR adjacency, and the arc arena
//     every shortcut can be recursively unpacked through.
//   - Engine (query.go) answers point queries on the overlay — 0 allocs/op
//     for distance queries in steady state, and full path unpacking for
//     path queries. Engine implements search.PointEngine, which is how the
//     server installs it.
//   - MTM (mtm.go) answers whole Q(S, T) tables with the many-to-many
//     bucket algorithm — |S|+|T| upward sweeps joined at per-node bucket
//     entries instead of |S|·|T| point queries, 0 allocs/op for
//     distance-only tables. MTM implements search.TableEngine, which is
//     how the server routes wide obfuscated queries to it.
//   - The upward searches of both engines depend on the overlay kind. On a
//     customizable overlay (the kind servers are deployed with) every
//     upward search walks the start node's ancestors in the overlay's
//     elimination tree (etree.go) in rank order, with no priority queue;
//     the point query takes the minimum over the two chains' common
//     ancestors. On a witness-pruned overlay, whose pruned search spaces
//     are far smaller than its tree's ancestor sets, they are heap-driven
//     upward Dijkstras on pooled epoch-stamped search.Workspace instances,
//     and the point query is bidirectional with the CH stopping rule.
//   - Recustomize (customize.go) is the live-update half: a customizable
//     overlay (BuildCustomizable) separates the metric-independent
//     contraction structure from a weight layer that a bottom-up triangle
//     pass recomputes after arc costs change, and RecustomizeIncremental
//     re-derives only the arcs an update actually moves — milliseconds, no
//     re-contraction, same query engines.
//   - Write/Read (io.go) persist an Overlay in the versioned, checksummed
//     binary format documented in docs/FORMATS.md, so deployments build the
//     hierarchy once (cmd/opaque-preprocess) and serve from it everywhere.
//
// # Correctness
//
// Contraction preserves shortest-path distances among the not-yet-contracted
// nodes at every step: before node v is removed, a witness search checks for
// every in-neighbour x and out-neighbour w whether a path x→…→w avoiding v
// exists that is no longer than the path x→v→w; when none is found (or the
// bounded search gives up looking), the shortcut x→w with cost
// c(x,v)+c(v,w) is inserted. Witness searches are deliberately budgeted —
// giving up early inserts a redundant (never a wrong) shortcut, trading
// overlay size for preprocessing time. The query property tests assert CH
// results equal search.ReferenceDijkstra across random graphs, including
// after a save/load round-trip.
package ch

import (
	"fmt"
	"sync"

	"opaque/internal/roadnet"
)

// arc is one entry of the overlay's arc arena: an original road segment or a
// shortcut, in original traversal direction. Shortcuts reference the two
// arena arcs they bypass (childA: from→via, childB: via→to), so any arc
// recursively unpacks into the original-arc path it represents regardless of
// how deeply shortcuts nest.
type arc struct {
	from, to       int32
	childA, childB int32 // arena indices of the bypassed halves; <0 for original arcs
	cost           float64
}

// Overlay is an immutable contraction-hierarchy over one frozen road
// network. It stores the contraction order (rank), the hierarchy levels, the
// arc arena, and two CSR adjacency views of the arena: the upward forward
// view (out-arcs to higher-ranked nodes, relaxed by the forward search) and
// the upward backward view (in-arcs from higher-ranked nodes, relaxed by the
// backward search). Every arena arc appears in exactly one of the two views.
//
// An Overlay is safe for concurrent use — queries only read it; all mutable
// per-query state lives in search workspaces. It is bound to the graph it
// was built from by node/arc counts and a content checksum (Matches), so a
// persisted overlay cannot silently be served against the wrong map.
type Overlay struct {
	n         int // node count
	nOriginal int // arcs[:nOriginal] are original graph arcs (no children)
	rank      []int32
	level     []int32
	arcs      []arc

	// Upward CSR views over the arena. fwd holds, per node u, the arcs
	// u→w with rank(w) > rank(u); bwd holds, per node u, the arcs x→u with
	// rank(x) > rank(u), keyed by head x (the node the backward search
	// steps to). The cost/head copies keep the query's inner loop on two
	// flat arrays; the arena index is carried for path unpacking.
	fwdOff, bwdOff   []int32
	fwdTo, bwdTo     []roadnet.NodeID
	fwdCost, bwdCost []float64
	fwdArc, bwdArc   []int32

	graphArcs int    // NumArcs of the source graph (self-loops included)
	checksum  uint64 // GraphChecksum (content) of the source graph
	// topoSum is the weight-independent topology checksum of the source
	// graph (roadnet.Graph.TopologyChecksum). It is what the frozen half of
	// the overlay — contraction order and shortcut structure — is bound to:
	// a weight update moves checksum but not topoSum, and Recustomize
	// accepts any graph whose topoSum matches.
	topoSum uint64
	// customizable marks overlays whose contraction inserted a shortcut for
	// every in/out neighbour pair (no witness pruning), making the shortcut
	// structure metric-independent: after a weight update, Recustomize can
	// recompute the weight layer bottom-up instead of re-contracting.
	// Witness-pruned overlays are smaller but bound to one metric forever.
	customizable bool

	// part is the frozen partition structure of a partition-aware overlay
	// (nil when unpartitioned): node→cell assignment, boundary set and the
	// arena's layer classification. It is shared across re-customized
	// generations exactly like the ranks and CSR views; see partition.go.
	part *chPartition
	// upd is the lazily derived lookup structure of the arc-level update
	// path (customize.go). Pure topology, so every re-customized generation
	// shares the one instance through this pointer.
	upd *updateIndex
	// etree is the elimination tree of a customizable overlay (etree.go):
	// each node's parent, -1 at roots; nil on witness-pruned overlays, whose
	// searches keep the heap. Derived with the CSR views, never persisted,
	// and shared by every re-customized generation like upd.
	etree []int32
	// baseCost[i] is the road-segment cost original arena arc i was last
	// customized for — the one piece of per-generation state
	// RecustomizeIncremental needs: it diffs the updated graph against it to
	// seed its worklist. Builds and re-customizations record it; an overlay
	// from Read has none until Matches sees its graph. Guarded by baseMu
	// because engines call Matches from concurrent query paths.
	baseMu   sync.Mutex
	baseCost []float64
}

// NumNodes returns the number of nodes the overlay covers.
func (o *Overlay) NumNodes() int { return o.n }

// NumOriginalArcs returns how many arena arcs are original road segments.
func (o *Overlay) NumOriginalArcs() int { return o.nOriginal }

// NumShortcuts returns how many shortcut arcs contraction inserted.
func (o *Overlay) NumShortcuts() int { return len(o.arcs) - o.nOriginal }

// Rank returns v's contraction rank: 0 for the first node contracted, n-1
// for the most important node. Both query searches only relax arcs toward
// higher ranks.
func (o *Overlay) Rank(v roadnet.NodeID) int { return int(o.rank[v]) }

// Level returns v's hierarchy level — 0 for nodes contracted with no
// previously contracted neighbour, and 1 + max(level of contracted
// neighbours) otherwise. The maximum level bounds shortcut nesting depth.
func (o *Overlay) Level(v roadnet.NodeID) int { return int(o.level[v]) }

// MaxLevel returns the deepest hierarchy level in the overlay.
func (o *Overlay) MaxLevel() int {
	maxL := 0
	for _, l := range o.level {
		if int(l) > maxL {
			maxL = int(l)
		}
	}
	return maxL
}

// Checksum returns the content checksum of the graph the overlay's weights
// were (re)customized for (see GraphChecksum). A weight update on the served
// graph moves the graph's checksum away from this value; serving the overlay
// past that point returns distances from a dead metric.
func (o *Overlay) Checksum() uint64 { return o.checksum }

// TopologyChecksum returns the weight-independent topology checksum of the
// source graph — the identity of the overlay's frozen half.
func (o *Overlay) TopologyChecksum() uint64 { return o.topoSum }

// Customizable reports whether the overlay's shortcut structure is
// metric-independent, i.e. whether Recustomize can refresh its weights after
// a weight update without re-contracting.
func (o *Overlay) Customizable() bool { return o.customizable }

// Matches verifies the overlay was built from exactly this graph — node
// count, arc count and content checksum — and returns a descriptive error
// when it was not. Servers call this before installing a persisted overlay.
//
// A match also proves g's arc costs are the ones the weight layer was derived
// from, so a customizable overlay that arrived without base costs (Read does
// not persist them) records them here, once: its first weight update is then
// an arc-level one like every later update, not a full pass.
func (o *Overlay) Matches(g *roadnet.Graph) error {
	if g == nil {
		return fmt.Errorf("ch: overlay match check against nil graph")
	}
	if g.NumNodes() != o.n || g.NumArcs() != o.graphArcs {
		return fmt.Errorf("ch: overlay was built for a %d-node/%d-arc graph, got %d nodes/%d arcs",
			o.n, o.graphArcs, g.NumNodes(), g.NumArcs())
	}
	if sum := GraphChecksum(g); sum != o.checksum {
		return fmt.Errorf("ch: overlay checksum %016x does not match graph checksum %016x (same shape, different content)", o.checksum, sum)
	}
	if !o.customizable {
		return nil
	}
	o.baseMu.Lock()
	defer o.baseMu.Unlock()
	if o.baseCost != nil {
		return nil
	}
	base := make([]float64, o.nOriginal)
	if err := o.forEachOriginalArc(g, func(idx int, cost float64) { base[idx] = cost }); err != nil {
		return err
	}
	o.baseCost = base
	return nil
}

// GraphChecksum returns the content checksum overlays bind to: the graph's
// cached roadnet ContentChecksum, which covers node count, every node's
// adjacency heads and every arc's cost bit pattern. Two graphs with the same
// checksum, node count and arc count are treated as identical for overlay
// binding purposes. The value is maintained incrementally across live weight
// updates (roadnet.Graph.WithUpdatedWeights), so comparing it per query is
// O(1), not O(arcs).
func GraphChecksum(g *roadnet.Graph) uint64 { return g.ContentChecksum() }

// buildCSR derives the two upward CSR views from the arena and the ranks.
// It is called by the builder and by Read, so the in-memory layout of a
// loaded overlay is guaranteed identical to a freshly built one.
func (o *Overlay) buildCSR() {
	n := o.n
	fwdCnt := make([]int32, n+1)
	bwdCnt := make([]int32, n+1)
	for i := range o.arcs {
		a := &o.arcs[i]
		if o.rank[a.to] > o.rank[a.from] {
			fwdCnt[a.from+1]++
		} else {
			bwdCnt[a.to+1]++
		}
	}
	for v := 0; v < n; v++ {
		fwdCnt[v+1] += fwdCnt[v]
		bwdCnt[v+1] += bwdCnt[v]
	}
	o.fwdOff, o.bwdOff = fwdCnt, bwdCnt
	o.upd = new(updateIndex) // filled from these views on the first weight update
	nf, nb := o.fwdOff[n], o.bwdOff[n]
	o.fwdTo = make([]roadnet.NodeID, nf)
	o.fwdCost = make([]float64, nf)
	o.fwdArc = make([]int32, nf)
	o.bwdTo = make([]roadnet.NodeID, nb)
	o.bwdCost = make([]float64, nb)
	o.bwdArc = make([]int32, nb)
	nextF := make([]int32, n)
	nextB := make([]int32, n)
	copy(nextF, o.fwdOff[:n])
	copy(nextB, o.bwdOff[:n])
	for i := range o.arcs {
		a := &o.arcs[i]
		if o.rank[a.to] > o.rank[a.from] {
			j := nextF[a.from]
			o.fwdTo[j] = roadnet.NodeID(a.to)
			o.fwdCost[j] = a.cost
			o.fwdArc[j] = int32(i)
			nextF[a.from]++
		} else {
			j := nextB[a.to]
			o.bwdTo[j] = roadnet.NodeID(a.from)
			o.bwdCost[j] = a.cost
			o.bwdArc[j] = int32(i)
			nextB[a.to]++
		}
	}
	// Sort each node's segment by head. Queries scan whole segments, so the
	// order is semantically free — sorted segments are what lets the
	// customization pass binary-search "the arc u→w" out of tens of millions
	// of triangle relaxations instead of scanning adjacency linearly.
	for v := 0; v < n; v++ {
		sortSegmentByHead(o.fwdTo, o.fwdCost, o.fwdArc, int(o.fwdOff[v]), int(o.fwdOff[v+1]))
		sortSegmentByHead(o.bwdTo, o.bwdCost, o.bwdArc, int(o.bwdOff[v]), int(o.bwdOff[v+1]))
	}
	if o.customizable {
		o.etree = eliminationTree(n, o.rank, o.arcs)
	}
}

// sortSegmentByHead insertion-sorts the CSR triple (heads, costs, arcIDs) on
// heads within [lo, hi). Segments are node degrees — small — and nearly
// sorted already (the arena seeds originals in adjacency order), which is
// insertion sort's best case.
func sortSegmentByHead(heads []roadnet.NodeID, costs []float64, arcIDs []int32, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		h, c, a := heads[i], costs[i], arcIDs[i]
		j := i
		for j > lo && heads[j-1] > h {
			heads[j], costs[j], arcIDs[j] = heads[j-1], costs[j-1], arcIDs[j-1]
			j--
		}
		heads[j], costs[j], arcIDs[j] = h, c, a
	}
}

// String summarises the overlay.
func (o *Overlay) String() string {
	return fmt.Sprintf("ch.Overlay{nodes: %d, original: %d, shortcuts: %d, maxLevel: %d}",
		o.n, o.nOriginal, o.NumShortcuts(), o.MaxLevel())
}
