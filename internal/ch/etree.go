package ch

import (
	"math"

	"opaque/internal/roadnet"
	"opaque/internal/search"
)

// This file holds the elimination tree of the overlay and the ancestor walk
// every upward search runs on it in place of a heap-driven Dijkstra.
//
// Customizable contraction fixes the shortcut structure independently of the
// metric, so the upward search space of a node is bounded by structure alone:
// every upward arc u→w (forward or backward view) ends at an ancestor of u in
// the elimination tree of the arena's undirected support under the
// contraction order (Dibbelt–Strasser–Wagner, customizable CH). An upward
// search from s therefore only ever labels ancestors of s, and visiting them
// in rank order — which is tree order, every parent outranks its child — is a
// topological order of the upward DAG: each node's label is final when the
// walk reaches it. No priority queue is needed; the walk relaxes the upward
// arcs of every ancestor whose label is finite and skips the rest.

// eliminationTree derives the elimination tree of the arena's undirected
// support under the contraction order with Liu's path-compressed algorithm:
// nodes are eliminated in ascending rank, and each lower neighbour's current
// root (found through the compressed ancestor links) is hung under the node
// being eliminated. The result is a parent array in node IDs, -1 at roots —
// a forest when the map has islands.
//
// The tree is taken over the support, not over the upward neighbourhoods:
// with one-way arcs customizable contraction inserts only in×out shortcuts,
// so a node's upward neighbours need not be pairwise adjacent and "lowest-
// ranked upward neighbour" would cut reachable nodes out of the walk.
func eliminationTree(n int, rank []int32, arcs []arc) []int32 {
	// Lower endpoints of every arc grouped by the rank of the higher one
	// (a counting sort), so each rank meets its lower neighbours in turn.
	off := make([]int32, n+1)
	for i := range arcs {
		off[max(rank[arcs[i].from], rank[arcs[i].to])+1]++
	}
	for k := 0; k < n; k++ {
		off[k+1] += off[k]
	}
	lower := make([]int32, off[n])
	next := append([]int32(nil), off[:n]...)
	for i := range arcs {
		a, b := rank[arcs[i].from], rank[arcs[i].to]
		hi := max(a, b)
		lower[next[hi]] = min(a, b)
		next[hi]++
	}

	// Liu's algorithm in rank space: parent is the tree, anc the compressed
	// ancestor links that find a subtree's current root.
	parent := make([]int32, n)
	anc := next // reused: entry k is overwritten before it is first read
	for k := int32(0); k < int32(n); k++ {
		parent[k], anc[k] = -1, -1
		for _, r := range lower[off[k]:off[k+1]] {
			for anc[r] >= 0 && anc[r] != k {
				up := anc[r]
				anc[r] = k
				r = up
			}
			if anc[r] < 0 {
				anc[r], parent[r] = k, k
			}
		}
	}

	byRank := make([]int32, n)
	for v, r := range rank {
		byRank[r] = int32(v)
	}
	etree := make([]int32, n)
	for v := range etree {
		etree[v] = -1
		if p := parent[rank[v]]; p >= 0 {
			etree[v] = byRank[p]
		}
	}
	return etree
}

// treeLabels is the label store of elimination-tree walks: one tentative
// distance and one relaxing CSR slot per node. Between walks every dist
// entry is +Inf — a walk labels only ancestors of its start, and clearChain
// resets exactly those — so a walk needs no epochs and no per-query O(n)
// fill. via is never reset: it is read only for nodes the current walk
// labelled, and its slot becomes an arena arc through the walked view's
// fwdArc or bwdArc only where a path needs one.
type treeLabels struct {
	dist []float64
	via  []int32
}

// grow sizes the store for an n-node overlay; new entries start at rest.
func (l *treeLabels) grow(n int) {
	for len(l.dist) < n {
		l.dist = append(l.dist, math.Inf(1))
	}
	if n > len(l.via) {
		l.via = append(l.via, make([]int32, n-len(l.via))...)
	}
}

// walkUp runs one upward search from start over the CSR view (off, heads,
// costs) by walking start's elimination-tree ancestors in ascending rank:
// every ancestor with a finite label is settled and relaxes its upward arcs,
// recording the relaxing CSR slot in via (-1 at start). The labels stay on l
// for the caller, which walks the chain again to read them and return them
// to rest.
//
// Ancestors ascend in rank, and segments are laid out by rank, so a walk
// streams the views front to back; the inner loop reads two columns over
// re-sliced segments, which leaves only the label stores bounds-checked.
//
//opaque:noalloc
func (o *Overlay) walkUp(l *treeLabels, start roadnet.NodeID,
	off []int32, heads []roadnet.NodeID, costs []float64, stats *search.Stats) {
	dist := l.dist
	via := l.via[:len(dist)] // one length: checking dist[h] covers via[h]
	dist[start], via[start] = 0, -1
	for u := int32(start); u >= 0; u = o.etree[u] {
		du := dist[u]
		if math.IsInf(du, 1) {
			continue
		}
		stats.SettledNodes++
		lo, hi := o.seg(off, u)
		stats.RelaxedArcs += int(hi - lo)
		hs, cs := heads[lo:hi], costs[lo:hi]
		for i, h := range hs {
			if nd := du + cs[i]; nd < dist[h] {
				dist[h], via[h] = nd, lo+int32(i)
			}
		}
	}
}

// clearChain returns the labels of start's ancestor chain to rest.
func (o *Overlay) clearChain(l *treeLabels, start roadnet.NodeID) {
	for u := int32(start); u >= 0; u = o.etree[u] {
		l.dist[u] = math.Inf(1)
	}
}
