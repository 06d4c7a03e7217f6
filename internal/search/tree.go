package search

import (
	"fmt"
	"sync"
	"sync/atomic"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// Tree is a resumable single-source Dijkstra spanning tree: the settled part
// of the tree the SSMD search of Section III-B grows. Unlike the one-shot
// SSMD function, a Tree keeps its distance labels, parent pointers and
// priority queue between calls, so a later query from the same source only
// pays for the frontier expansion beyond what earlier queries already
// settled. This is what makes the SSMD tree cache effective: obfuscated
// queries that share a source (common in shared mode, where the obfuscator
// deliberately reuses endpoints across users) reuse the settled prefix
// instead of re-running Dijkstra from scratch.
//
// The tree's state lives in an epoch-stamped Workspace the tree draws from
// its WorkspacePool for its whole lifetime: creating a tree is O(1) — an
// epoch bump on recycled arrays — instead of allocating and Inf-filling two
// O(n) label arrays, and releasing the tree hands the arrays to the next
// tree instead of the garbage collector. Release is refcounted so a cache
// can drop its entry while a concurrent query is still reading the tree; the
// workspace returns to the pool only when the last holder lets go.
//
// Growing the tree replays exactly the relaxation sequence an uninterrupted
// search would perform: AppendPaths stops, like cold SSMD, right after
// settling the last requested destination (before expanding its arcs),
// records that node as the pending expansion, and the next growth step starts
// by expanding it.
// Distances and parent pointers therefore evolve identically to a single
// long-running search, and paths extracted from a resumed tree match cold
// SSMD results.
//
// A Tree serialises its own growth with an internal mutex; concurrent
// AppendPaths calls are safe and each observes a tree at least as grown as it
// needs.
type Tree struct {
	mu     sync.Mutex
	acc    storage.Accessor
	source roadnet.NodeID
	pool   *WorkspacePool // ws came from pool and goes back on the last Release
	ws     *Workspace
	// refs counts live holders of the tree: its creator (or the cache that
	// adopted it) plus every in-flight AppendPaths caller pinned via retain.
	// The workspace is recycled when the count reaches zero.
	refs atomic.Int32
	// unexpanded is the most recently settled node whose arcs have not been
	// relaxed yet (cold SSMD stops before expanding the last destination);
	// InvalidNode when none is outstanding.
	unexpanded roadnet.NodeID
}

// newTree initialises an empty spanning tree rooted at source, drawing its
// workspace from pool. It performs no search work; the first AppendPaths
// call grows the tree. The caller holds the one reference and recycles the
// workspace with Release.
func newTree(pool *WorkspacePool, acc storage.Accessor, source roadnet.NodeID) (*Tree, error) {
	if !validNode(acc, source) {
		return nil, errInvalidSource(source)
	}
	w := pool.get(acc.NumNodes())
	w.acc = acc
	t := &Tree{
		acc:        acc,
		source:     source,
		pool:       pool,
		ws:         w,
		unexpanded: roadnet.InvalidNode,
	}
	t.refs.Store(1)
	w.label(source, 0, roadnet.InvalidNode)
	w.heap.Push(int32(source), 0)
	return t, nil
}

// retain pins the tree for a caller about to use it; pair with Release.
func (t *Tree) retain() { t.refs.Add(1) }

// Release drops one holder's reference. When the last reference is dropped
// the tree's workspace is returned to its pool and the tree becomes
// unusable; further AppendPaths calls return an error.
func (t *Tree) Release() {
	if t.refs.Add(-1) != 0 {
		return
	}
	t.mu.Lock()
	w := t.ws
	t.ws = nil
	t.mu.Unlock()
	if w != nil {
		t.pool.put(w)
	}
}

// AppendPaths appends the shortest path from the tree's source to every
// requested destination to row, one cell per destination (see
// Workspace.AppendSSMD), growing the tree just far enough to settle them all.
// The returned Stats count only the incremental work this call performed —
// zero when every destination was already settled, which is exactly the
// saving the tree cache exists to harvest.
func (t *Tree) AppendPaths(dests []roadnet.NodeID, row *Table) (Stats, error) {
	if len(dests) == 0 {
		return Stats{}, errNoDestinations()
	}
	for _, d := range dests {
		if !validNode(t.acc, d) {
			return Stats{}, errInvalidDest(d)
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ws == nil {
		return Stats{}, fmt.Errorf("search: AppendPaths on a released tree (source %d)", t.source)
	}

	stats := t.grow(dests)
	for _, d := range dests {
		// An unsettled destination means the frontier was exhausted without
		// reaching it; its tentative label, if any, is not a shortest path.
		t.ws.appendCell(row, t.source, d, d == t.source || t.ws.settled(d))
	}
	return stats, nil
}

// grow continues the Dijkstra expansion until every destination is settled or
// the frontier is exhausted, returning the incremental work. Caller holds
// t.mu.
func (t *Tree) grow(dests []roadnet.NodeID) Stats {
	w := t.ws
	w.stats = Stats{}
	w.bumpMark()
	pending := 0
	for _, d := range dests {
		if d != t.source && !w.settled(d) && w.mark[d] != w.markEpoch {
			w.mark[d] = w.markEpoch
			pending++
		}
	}
	if pending == 0 {
		return w.stats // fully served from the settled prefix
	}
	if t.unexpanded != roadnet.InvalidNode {
		w.expand(t.unexpanded)
		t.unexpanded = roadnet.InvalidNode
	}
	for pending > 0 && !w.heap.Empty() {
		if w.heap.Len() > w.stats.MaxFrontier {
			w.stats.MaxFrontier = w.heap.Len()
		}
		item := w.heap.Pop()
		u := roadnet.NodeID(item.Value)
		if item.Priority > w.dist[u] {
			continue // stale entry
		}
		w.settle(u)
		w.stats.SettledNodes++
		if w.mark[u] == w.markEpoch {
			w.mark[u] = w.markEpoch - 1
			pending--
			if pending == 0 {
				// Stop exactly where cold SSMD stops: after settling the
				// last destination, before expanding its arcs. The next
				// grow call performs the deferred expansion first.
				t.unexpanded = u
				break
			}
		}
		w.expand(u)
	}
	return w.stats
}
