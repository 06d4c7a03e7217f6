package search

import (
	"fmt"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// Dijkstra computes the shortest path from source to dest on acc using
// Dijkstra's algorithm with early termination when dest is settled. It
// returns an empty path when dest is unreachable.
//
// This is a thin wrapper that runs on an epoch-stamped Workspace of the
// package's shared pool for the duration of the query; callers that run many
// searches on one goroutine can hold a Workspace from NewWorkspace and call
// its methods directly to skip even the pool round trip.
func Dijkstra(acc storage.Accessor, source, dest roadnet.NodeID) (Path, Stats, error) {
	w := sharedWorkspaces.get(acc.NumNodes())
	defer sharedWorkspaces.put(w)
	return w.Dijkstra(acc, source, dest)
}

// DijkstraDistance returns only the shortest-path distance from source to
// dest, or +Inf when unreachable. Unlike Dijkstra it stops the moment dest
// is settled and never reconstructs the path it would otherwise throw away,
// so it allocates nothing in steady state.
func DijkstraDistance(acc storage.Accessor, source, dest roadnet.NodeID) (float64, error) {
	w := sharedWorkspaces.get(acc.NumNodes())
	defer sharedWorkspaces.put(w)
	d, _, err := w.DijkstraDistance(acc, source, dest)
	return d, err
}

func checkEndpoints(acc storage.Accessor, source, dest roadnet.NodeID) error {
	if !validNode(acc, source) {
		return errInvalidSource(source)
	}
	if !validNode(acc, dest) {
		return errInvalidDest(dest)
	}
	return nil
}

func validNode(acc storage.Accessor, id roadnet.NodeID) bool {
	return id >= 0 && int(id) < acc.NumNodes()
}

func errInvalidSource(id roadnet.NodeID) error {
	return fmt.Errorf("search: invalid source node %d", id)
}

func errInvalidDest(id roadnet.NodeID) error {
	return fmt.Errorf("search: invalid destination node %d", id)
}

func errNoDestinations() error {
	return fmt.Errorf("search: SSMD needs at least one destination: %w", ErrEmptyQuery)
}
