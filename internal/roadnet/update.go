package roadnet

import (
	"errors"
	"fmt"
	"math"
)

// Live weight updates (traffic, closures-as-high-cost, reopened roads) are
// modelled copy-on-write: a frozen graph never mutates, so every search and
// preprocessed structure in flight keeps reading a consistent snapshot, and
// WithUpdatedWeights derives a new frozen graph that shares everything
// weights cannot change — the node table, the CSR offsets, the spatial grid
// — and owns a fresh arc array with the new costs. Swapping the derived
// graph in (storage.MutableGraph does this atomically) is what makes
// concurrent update + query traffic race-free by construction.

// ArcWeightChange reassigns the cost of every arc From→To. A change applies
// to all parallel arcs between the pair (the update source — a traffic feed
// keyed by road segment — cannot address one parallel lane apart from
// another). Closing a road is modelled as a very large finite cost; arc
// insertion or removal is a topology change and requires rebuilding the
// graph.
type ArcWeightChange struct {
	From, To NodeID
	NewCost  float64
}

// CheckCost is the one rule for an arc cost, at graph build, in a weight
// update and at every boundary a weight enters the system through: finite
// and non-negative. It returns nil for a valid cost and otherwise an error
// saying what is wrong with it.
func CheckCost(cost float64) error {
	switch {
	case math.IsNaN(cost):
		return errors.New("cost is NaN")
	case math.IsInf(cost, 0):
		return errors.New("cost is infinite")
	case cost < 0:
		return errors.New("cost is negative")
	}
	return nil
}

// ErrInvalidChange is wrapped by every error WithUpdatedWeights returns for
// a change the graph refuses: an unknown node, an invalid cost or a
// nonexistent arc. Such a change is refused before anything is derived, and
// any copy of the same road map refuses it alike.
var ErrInvalidChange = errors.New("roadnet: invalid weight change")

// WithUpdatedWeights returns a new frozen graph equal to g except that every
// arc named by changes carries its NewCost. The receiver is not modified and
// stays fully usable; the returned graph shares g's node table, CSR offsets
// and spatial index, and its content checksum is re-derived incrementally
// from g's (O(changes), not O(arcs)).
//
// Errors: the graph must be frozen; every change must reference an existing
// arc (both endpoints valid and at least one From→To arc present) and carry
// a finite non-negative cost, and a change that does not wraps
// ErrInvalidChange. On error the returned graph is nil and g is untouched.
func (g *Graph) WithUpdatedWeights(changes []ArcWeightChange) (*Graph, error) {
	if !g.frozen {
		return nil, fmt.Errorf("roadnet: WithUpdatedWeights requires a frozen graph")
	}
	for _, c := range changes {
		if !g.validID(c.From) || !g.validID(c.To) {
			return nil, fmt.Errorf("%w: (%d,%d) references unknown node (have %d nodes)", ErrInvalidChange, c.From, c.To, len(g.nodes))
		}
		if err := CheckCost(c.NewCost); err != nil {
			return nil, fmt.Errorf("%w: (%d,%d) has invalid cost %v: %w", ErrInvalidChange, c.From, c.To, c.NewCost, err)
		}
	}

	// Compute the parent's checksums first so the child's can be derived
	// incrementally below (and so repeated updates never pay the full pass
	// more than once per lineage).
	parent := g.ensureChecksums()
	fold := parent.fold

	arcs := make([]Arc, len(g.arcs))
	copy(arcs, g.arcs)
	for _, c := range changes {
		lo, hi := g.offsets[c.From], g.offsets[c.From+1]
		found := false
		for i := lo; i < hi; i++ {
			if arcs[i].To != c.To {
				continue
			}
			found = true
			if arcs[i].Cost != c.NewCost {
				fold ^= arcWeightHash(int(i), math.Float64bits(arcs[i].Cost))
				fold ^= arcWeightHash(int(i), math.Float64bits(c.NewCost))
				arcs[i].Cost = c.NewCost
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: references nonexistent arc %d→%d", ErrInvalidChange, c.From, c.To)
		}
	}

	out := &Graph{
		nodes:   g.nodes,
		offsets: g.offsets,
		arcs:    arcs,
		frozen:  true,
		minX:    g.minX,
		minY:    g.minY,
		maxX:    g.maxX,
		maxY:    g.maxY,
		grid:    g.grid,
		// revOnce deliberately fresh: the reverse CSR carries costs, so it is
		// rebuilt lazily on first reverse traversal of the new graph.
	}
	out.csum.Store(&checksums{topo: parent.topo, fold: fold, maxOut: parent.maxOut})
	return out, nil
}
