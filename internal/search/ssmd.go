package search

import (
	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// SSMDResult is the outcome of a single-source multi-destination search: one
// path per requested destination (empty when unreachable), in the same order
// as the destinations passed in.
type SSMDResult struct {
	Source roadnet.NodeID
	Dests  []roadnet.NodeID
	Paths  []Path
	Stats  Stats
}

// SSMD performs the single-source multi-destination search of Section III-B:
// a Dijkstra spanning tree grown from source until every destination in dests
// has been settled (or the frontier is exhausted). This is the primitive the
// obfuscated path query processor uses: with destinations of similar radius,
// its cost is close to a single 1-to-1 search, i.e. O(max_t ||s,t||^2), which
// is what Lemma 1 builds on.
//
// Duplicate destinations are allowed and each receives the same path.
//
// The wrapper borrows an epoch-stamped Workspace from the package pool; the
// SSMD evaluation itself (tentative labels, settled set, pending-destination
// set, priority queue) runs entirely on reused storage.
func SSMD(acc storage.Accessor, source roadnet.NodeID, dests []roadnet.NodeID) (SSMDResult, error) {
	w := sharedWorkspaces.get(acc.NumNodes())
	defer sharedWorkspaces.put(w)
	return w.SSMD(acc, source, dests)
}
