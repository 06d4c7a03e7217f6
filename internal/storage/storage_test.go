package storage

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
)

func testGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Nodes = 400
	cfg.Seed = 13
	return gen.MustGenerate(cfg)
}

func TestBuildPartitionings(t *testing.T) {
	g := testGraph(t)
	for _, part := range []Partitioning{ConnectivityClustered, RandomAssignment, HilbertOrder} {
		t.Run(string(part), func(t *testing.T) {
			ps, err := Build(g, Config{NodesPerPage: 32, Partitioning: part, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Every node assigned to exactly one page, no page over capacity.
			seen := make(map[roadnet.NodeID]int)
			for p := PageID(0); int(p) < ps.NumPages(); p++ {
				nodes := ps.PageNodes(p)
				if len(nodes) > 32 {
					t.Errorf("page %d holds %d nodes, capacity 32", p, len(nodes))
				}
				for _, id := range nodes {
					seen[id]++
					if ps.PageOf(id) != p {
						t.Errorf("PageOf(%d) = %d, but node listed on page %d", id, ps.PageOf(id), p)
					}
				}
			}
			if len(seen) != g.NumNodes() {
				t.Errorf("%d nodes assigned, want %d", len(seen), g.NumNodes())
			}
			for id, count := range seen {
				if count != 1 {
					t.Errorf("node %d assigned %d times", id, count)
				}
			}
		})
	}
}

func TestBuildErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := Build(g, Config{NodesPerPage: 0}); err == nil {
		t.Error("Build with zero page size succeeded")
	}
	if _, err := Build(g, Config{NodesPerPage: 16, Partitioning: "bogus"}); err == nil {
		t.Error("Build with unknown partitioning succeeded")
	}
	mutable := roadnet.NewGraph(1, 0)
	mutable.AddNode(0, 0)
	if _, err := Build(mutable, DefaultConfig()); err == nil {
		t.Error("Build on unfrozen graph succeeded")
	}
}

// TestClusteredLocality verifies the point of the CCAM layout: neighbours in
// the graph tend to share pages far more often than under random assignment.
func TestClusteredLocality(t *testing.T) {
	g := testGraph(t)
	samePageFraction := func(part Partitioning) float64 {
		ps := MustBuild(g, Config{NodesPerPage: 32, Partitioning: part, Seed: 3})
		same, total := 0, 0
		for id := 0; id < g.NumNodes(); id++ {
			for _, a := range g.Arcs(roadnet.NodeID(id)) {
				total++
				if ps.PageOf(roadnet.NodeID(id)) == ps.PageOf(a.To) {
					same++
				}
			}
		}
		return float64(same) / float64(total)
	}
	clustered := samePageFraction(ConnectivityClustered)
	random := samePageFraction(RandomAssignment)
	if clustered <= random {
		t.Errorf("clustered same-page fraction %.3f should exceed random %.3f", clustered, random)
	}
	if clustered < 0.3 {
		t.Errorf("clustered same-page fraction %.3f unexpectedly low", clustered)
	}
}

func TestBufferPoolBasics(t *testing.T) {
	bp, err := NewBufferPool(2)
	if err != nil {
		t.Fatal(err)
	}
	if hit := bp.Access(1); hit {
		t.Error("first access reported as hit")
	}
	if hit := bp.Access(1); !hit {
		t.Error("repeat access reported as miss")
	}
	bp.Access(2)
	bp.Access(3) // evicts 1 (LRU)
	if hit := bp.Access(1); hit {
		t.Error("evicted page reported as hit")
	}
	st := bp.Stats()
	if st.Accesses != 5 {
		t.Errorf("accesses = %d, want 5", st.Accesses)
	}
	if st.Faults != 4 {
		t.Errorf("faults = %d, want 4", st.Faults)
	}
	if st.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", st.Evictions)
	}
	if got := st.HitRatio(); got <= 0 || got >= 1 {
		t.Errorf("hit ratio = %v, want in (0,1)", got)
	}
}

func TestBufferPoolLRUOrder(t *testing.T) {
	bp := MustNewBufferPool(2)
	bp.Access(1)
	bp.Access(2)
	bp.Access(1) // 1 becomes most recent; 2 is LRU
	bp.Access(3) // should evict 2
	if hit := bp.Access(1); !hit {
		t.Error("page 1 should still be resident")
	}
	if hit := bp.Access(2); hit {
		t.Error("page 2 should have been evicted")
	}
}

func TestBufferPoolErrorsAndReset(t *testing.T) {
	if _, err := NewBufferPool(0); err == nil {
		t.Error("NewBufferPool(0) succeeded")
	}
	bp := MustNewBufferPool(4)
	bp.Access(1)
	bp.Flush()
	if st := bp.Stats(); st.Accesses != 0 || st.Faults != 0 {
		t.Errorf("Flush did not zero the stats: %+v", st)
	}
	if bp.Resident() != 0 {
		t.Error("Flush should drop cached pages")
	}
	if bp.Access(1) {
		t.Error("page 1 hit after Flush")
	}
	if bp.Capacity() != 4 {
		t.Errorf("capacity = %d, want 4", bp.Capacity())
	}
}

func TestBufferPoolConcurrentAccess(t *testing.T) {
	bp := MustNewBufferPool(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				bp.Access(PageID((i * (w + 1)) % 64))
			}
		}(w)
	}
	wg.Wait()
	st := bp.Stats()
	if st.Accesses != 8*500 {
		t.Errorf("accesses = %d, want %d", st.Accesses, 8*500)
	}
	if bp.Resident() > 16 {
		t.Errorf("resident pages %d exceed capacity 16", bp.Resident())
	}
}

// Property: IOStats counters never go negative and faults never exceed
// accesses, under arbitrary access sequences and pool sizes.
func TestBufferPoolInvariantProperty(t *testing.T) {
	f := func(pages []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		bp := MustNewBufferPool(capacity)
		for _, p := range pages {
			bp.Access(PageID(p % 32))
		}
		st := bp.Stats()
		return st.Faults <= st.Accesses && st.Evictions <= st.Faults && bp.Resident() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPagedGraphAccounting(t *testing.T) {
	g := testGraph(t)
	ps := MustBuild(g, DefaultConfig())
	pool := MustNewBufferPool(8)
	pg := NewPagedGraph(ps, pool)

	if pg.NumNodes() != g.NumNodes() {
		t.Errorf("NumNodes = %d, want %d", pg.NumNodes(), g.NumNodes())
	}
	before := pool.Stats().Accesses
	all := func(roadnet.Arc) bool { return true }
	pg.ForEachArc(0, all)
	pg.ForEachArc(1, all)
	after := pool.Stats().Accesses
	if after-before != 2 {
		t.Errorf("2 adjacency reads charged %d accesses, want 2", after-before)
	}
	// Graph is not charged.
	before = pool.Stats().Accesses
	_ = pg.Graph()
	if pool.Stats().Accesses != before {
		t.Error("Graph should not be charged as page accesses")
	}
	if pg.Store() != ps || pg.Pool() != pool {
		t.Error("accessors should expose their store and pool")
	}
}

func TestMemoryGraphAccessor(t *testing.T) {
	g := testGraph(t)
	m := NewMemoryGraph(g)
	if m.NumNodes() != g.NumNodes() {
		t.Errorf("NumNodes = %d, want %d", m.NumNodes(), g.NumNodes())
	}
	var arcs []roadnet.Arc
	m.ForEachArc(0, func(a roadnet.Arc) bool {
		arcs = append(arcs, a)
		return true
	})
	if !slices.Equal(arcs, g.Arcs(0)) {
		t.Error("MemoryGraph.ForEachArc disagrees with the graph")
	}
	if m.Graph() != g {
		t.Error("MemoryGraph.Graph should return the wrapped graph")
	}
}

func TestIOStatsAdd(t *testing.T) {
	a := IOStats{Accesses: 1, Faults: 2, Evictions: 3}
	b := IOStats{Accesses: 10, Faults: 20, Evictions: 30}
	sum := a.Add(b)
	if sum.Accesses != 11 || sum.Faults != 22 || sum.Evictions != 33 {
		t.Errorf("Add = %+v", sum)
	}
	if (IOStats{}).HitRatio() != 0 {
		t.Error("HitRatio of zero stats should be 0")
	}
}
