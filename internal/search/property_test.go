package search

import (
	"math"
	"testing"
	"testing/quick"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// Property: on the shared medium graph, for arbitrary (source, dest) index
// pairs, the network distance returned by Dijkstra is never below the
// Euclidean lower bound (edge costs are at least 0.8× Euclidean length and
// non-highway edges at least 1×; 0.8 is the safe global factor), is symmetric
// for this bidirectional generator, and satisfies the triangle inequality
// through a random waypoint.
func TestNetworkDistanceProperties(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	n := g.NumNodes()
	f := func(aRaw, bRaw, cRaw uint16) bool {
		a := roadnet.NodeID(int(aRaw) % n)
		b := roadnet.NodeID(int(bRaw) % n)
		c := roadnet.NodeID(int(cRaw) % n)
		dab, err := DijkstraDistance(acc, a, b)
		if err != nil {
			return false
		}
		dba, err := DijkstraDistance(acc, b, a)
		if err != nil {
			return false
		}
		if math.IsInf(dab, 1) || math.IsInf(dba, 1) {
			// The generator guarantees connectivity, so this should not
			// happen; treat it as a failure.
			return false
		}
		// Lower bound.
		if dab < 0.8*g.Euclid(a, b)-1e-6 {
			return false
		}
		// Symmetry (all generator edges are bidirectional with equal cost).
		if math.Abs(dab-dba) > 1e-6*(1+dab) {
			return false
		}
		// Triangle inequality through c.
		dac, err := DijkstraDistance(acc, a, c)
		if err != nil {
			return false
		}
		dcb, err := DijkstraDistance(acc, c, b)
		if err != nil {
			return false
		}
		return dab <= dac+dcb+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: SSMD distances agree with single-pair Dijkstra for every
// requested destination, for arbitrary destination index triples.
func TestSSMDConsistencyProperty(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	n := g.NumNodes()
	f := func(sRaw, d1Raw, d2Raw, d3Raw uint16) bool {
		s := roadnet.NodeID(int(sRaw) % n)
		dests := []roadnet.NodeID{
			roadnet.NodeID(int(d1Raw) % n),
			roadnet.NodeID(int(d2Raw) % n),
			roadnet.NodeID(int(d3Raw) % n),
		}
		res, err := SSMD(acc, s, dests)
		if err != nil {
			return false
		}
		for i, d := range dests {
			want, err := DijkstraDistance(acc, s, d)
			if err != nil {
				return false
			}
			got := res.Paths[i].Cost
			if res.Paths[i].Empty() && d != s {
				got = math.Inf(1)
			}
			if math.IsInf(want, 1) != math.IsInf(got, 1) {
				return false
			}
			if !math.IsInf(want, 1) && math.Abs(want-got) > 1e-6*(1+want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
