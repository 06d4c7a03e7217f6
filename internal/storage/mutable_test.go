package storage

import (
	"reflect"
	"sync"
	"testing"

	"opaque/internal/roadnet"
)

func mutableFixture(t *testing.T) *roadnet.Graph {
	t.Helper()
	g := roadnet.NewGraph(3, 4)
	g.AddNode(0, 0)
	g.AddNode(1, 0)
	g.AddNode(2, 0)
	g.MustAddBidirectionalEdge(0, 1, 2)
	g.MustAddBidirectionalEdge(1, 2, 3)
	g.Freeze()
	return g
}

// TestMutableGraphIsNotAnAccessor pins that an Accessor never changes under
// a query: *MutableGraph, the one type whose data moves, has no read
// methods, so the type system forbids reading it except through an immutable
// snapshot, which is a versioned Accessor.
func TestMutableGraphIsNotAnAccessor(t *testing.T) {
	accessor := reflect.TypeOf((*Accessor)(nil)).Elem()
	versioned := reflect.TypeOf((*Versioned)(nil)).Elem()
	if reflect.TypeOf(&MutableGraph{}).Implements(accessor) {
		t.Error("*MutableGraph implements Accessor: a query could read moving data")
	}
	snap := reflect.TypeOf(&GraphSnapshot{})
	if !snap.Implements(accessor) || !snap.Implements(versioned) {
		t.Error("*GraphSnapshot must implement Accessor and Versioned")
	}
}

// arcCost returns the cost of the arc from -> to in acc.
func arcCost(acc Accessor, from, to roadnet.NodeID) float64 {
	cost := -1.0
	acc.ForEachArc(from, func(a roadnet.Arc) bool {
		if a.To == to {
			cost = a.Cost
			return false
		}
		return true
	})
	return cost
}

func TestMutableGraphSnapshotPinning(t *testing.T) {
	g := mutableFixture(t)
	m := NewMutableGraph(g)
	if m.Generation() != 0 {
		t.Fatalf("fresh mutable graph at generation %d", m.Generation())
	}
	snap := m.Snapshot()
	gen, err := m.UpdateWeights([]roadnet.ArcWeightChange{{From: 0, To: 1, NewCost: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || m.Generation() != 1 {
		t.Fatalf("generation after update: returned %d, mutable graph %d, want 1", gen, m.Generation())
	}
	// The pinned snapshot still serves the pre-update weights and keeps its
	// generation; a new snapshot serves the new ones.
	if c := arcCost(snap, 0, 1); c != 2 {
		t.Fatalf("pinned snapshot sees updated cost %v", c)
	}
	if GenerationOf(snap) != 0 {
		t.Fatalf("pinned snapshot generation moved to %d", GenerationOf(snap))
	}
	next := m.Snapshot()
	if c := arcCost(next, 0, 1); c != 7 {
		t.Fatalf("new snapshot serves stale cost %v", c)
	}
	if GenerationOf(next) != 1 {
		t.Fatalf("new snapshot at generation %d, want 1", GenerationOf(next))
	}
}

func TestMutableGraphFailedUpdateKeepsState(t *testing.T) {
	g := mutableFixture(t)
	m := NewMutableGraph(g)
	before := m.Snapshot()
	if _, err := m.UpdateWeights([]roadnet.ArcWeightChange{{From: 0, To: 2, NewCost: 1}}); err == nil {
		t.Fatal("nonexistent arc accepted")
	}
	if m.Snapshot() != before || m.Generation() != 0 {
		t.Fatal("failed update moved the snapshot or generation")
	}
}

// TestMutableGraphConcurrentReadersAndWriters is a -race smoke test: readers
// iterate arcs while writers update weights. Every read must observe one of
// the two alternating costs, never anything else.
func TestMutableGraphConcurrentReadersAndWriters(t *testing.T) {
	g := mutableFixture(t)
	m := NewMutableGraph(g)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int) {
			defer writers.Done()
			cost := float64(seed + 10)
			for i := 0; i < 200; i++ {
				if _, err := m.UpdateWeights([]roadnet.ArcWeightChange{{From: 1, To: 2, NewCost: cost}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := arcCost(m.Snapshot(), 1, 2); got != 3 && got != 10 && got != 11 {
				t.Errorf("observed impossible cost %v", got)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if gen := m.Generation(); gen != 400 {
		t.Fatalf("generation %d after 400 updates", gen)
	}
}
