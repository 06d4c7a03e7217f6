package roadnet

import (
	"hash/fnv"
	"math"
	"sync/atomic"
)

// This file gives every frozen graph a content identity cheap enough to
// consult on the query hot path and cheap enough to *maintain* across live
// weight updates. The identity is split in two:
//
//   - TopologyChecksum covers everything weights cannot change — the node
//     count and every node's adjacency heads in CSR order. Preprocessed
//     structures whose shape only depends on connectivity (the CH overlay's
//     contraction order and shortcut structure) bind to this value and
//     survive weight updates.
//   - ContentChecksum additionally folds in every arc's cost bit pattern.
//     Structures whose numbers depend on the metric (shortcut weights,
//     cached spanning trees) bind to this value and must be refreshed when
//     it moves.
//
// The weight half is an XOR fold of independent per-arc hashes, so a weight
// update re-derives the content checksum incrementally: XOR out the touched
// arcs' old terms, XOR in the new ones — O(changes), not O(arcs). Both
// values are computed lazily once per graph and cached; WithUpdatedWeights
// (update.go) seeds the derived graph's cache from its parent's.

// checksums is the cached pair (computed together in one CSR pass), with
// the one other topology fact that pass yields.
type checksums struct {
	topo   uint64 // FNV-1a over node count, per-node degree and head IDs
	fold   uint64 // XOR over arcWeightHash(i, cost bits) for every arc index i
	maxOut int    // the largest out-degree
}

// FNV-1a constants (hash/fnv), inlined so the per-arc weight term costs no
// hasher allocation — the full pass runs once per graph lineage over every
// arc, and the incremental path hashes two terms per changed arc.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// arcWeightHash hashes one arc's weight term: FNV-1a over the arc's CSR
// index and its cost bit pattern (all little-endian, matching hash/fnv over
// the same 12 bytes). Including the index makes the XOR fold
// order-sensitive-by-position (two arcs swapping costs changes the fold)
// while keeping each term independently removable.
func arcWeightHash(i int, costBits uint64) uint64 {
	h := uint64(fnvOffset64)
	v := uint32(i)
	for k := 0; k < 4; k++ {
		h ^= uint64(byte(v >> (8 * k)))
		h *= fnvPrime64
	}
	for k := 0; k < 8; k++ {
		h ^= uint64(byte(costBits >> (8 * k)))
		h *= fnvPrime64
	}
	return h
}

// computeChecksums derives both halves in one pass over the adjacency.
func computeChecksums(g *Graph) *checksums {
	h := fnv.New64a()
	var buf [4]byte
	put32 := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	n := g.NumNodes()
	put32(uint32(n))
	fold := uint64(0)
	idx, maxOut := 0, 0
	for v := 0; v < n; v++ {
		arcs := g.Arcs(NodeID(v))
		maxOut = max(maxOut, len(arcs))
		put32(uint32(len(arcs)))
		for _, a := range arcs {
			put32(uint32(a.To))
			fold ^= arcWeightHash(idx, math.Float64bits(a.Cost))
			idx++
		}
	}
	return &checksums{topo: h.Sum64(), fold: fold, maxOut: maxOut}
}

// ensureChecksums returns the graph's cached checksum pair, computing it on
// first use. Only frozen graphs cache — an unfrozen graph's adjacency can
// still grow, so its checksums are recomputed per call and never stored.
func (g *Graph) ensureChecksums() *checksums {
	if !g.frozen {
		return computeChecksums(g)
	}
	if cs := g.csum.Load(); cs != nil {
		return cs
	}
	cs := computeChecksums(g)
	// A concurrent caller may have stored an identical pair first; either
	// value is correct, keep whichever won.
	g.csum.CompareAndSwap(nil, cs)
	return g.csum.Load()
}

// TopologyChecksum returns a checksum of the graph's connectivity — node
// count and adjacency heads in CSR order — that is invariant under weight
// updates. Two graphs with equal topology checksums (and equal node/arc
// counts) have identical arc structure and differ at most in costs.
func (g *Graph) TopologyChecksum() uint64 { return g.ensureChecksums().topo }

// MaxOutDegree returns the largest number of arcs leaving one node. Like
// the topology checksum it is invariant under weight updates, and it is
// cached with it: the width of an index into any node's out-arcs.
func (g *Graph) MaxOutDegree() int { return g.ensureChecksums().maxOut }

// ContentChecksum returns a checksum of the graph's full content: the
// topology checksum XOR-combined with a fold of every arc's cost bit
// pattern. It changes whenever any weight changes and is what preprocessed
// metric-dependent structures (the CH overlay's customized weights) bind to.
// The value is cached after the first call; graphs derived through
// WithUpdatedWeights maintain it incrementally in O(changes).
func (g *Graph) ContentChecksum() uint64 {
	cs := g.ensureChecksums()
	return cs.topo ^ cs.fold
}

// csumCache is the atomic cache cell embedded in Graph (kept in its own type
// so graph.go stays focused on adjacency).
type csumCache = atomic.Pointer[checksums]
