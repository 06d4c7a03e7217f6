package experiments

import (
	"math"
	"strconv"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

func pagedTestGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Nodes = 900
	cfg.Seed = 121
	return gen.MustGenerate(cfg)
}

func TestPagedEvaluatorCountsFaults(t *testing.T) {
	g := pagedTestGraph(t)
	eval, err := newPagedEvaluator(g, storage.ConnectivityClustered, 16)
	if err != nil {
		t.Fatal(err)
	}
	q := protocol.ServerQuery{QueryID: 5, Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{roadnet.NodeID(g.NumNodes() - 1)}}
	reply, err := eval.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if reply.QueryID != 5 || len(reply.Paths) != 1 || !reply.Paths[0].Found {
		t.Fatalf("reply = %+v, want query 5 with its one path", reply)
	}
	if reply.PageFaults <= 0 || reply.SettledNodes <= 0 {
		t.Fatalf("cross-map query: %d faults, %d settled, want both > 0", reply.PageFaults, reply.SettledNodes)
	}
	if settled, faults := eval.Totals(); settled != reply.SettledNodes || faults != reply.PageFaults {
		t.Errorf("totals = (%d, %d) after one query, want its reply's (%d, %d)", settled, faults, reply.SettledNodes, reply.PageFaults)
	}
	eval.Reset()
	if settled, faults := eval.Totals(); settled != 0 || faults != 0 {
		t.Errorf("totals = (%d, %d) after Reset, want 0", settled, faults)
	}
	again, err := eval.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if again.PageFaults != reply.PageFaults {
		t.Errorf("the query repeated after Reset faulted %d pages, want the cold run's %d", again.PageFaults, reply.PageFaults)
	}
}

// TestFaultColumnsStartCold: every row of E1, E5 and E8 starts from a cold
// buffer pool, so each pays its own page faults. At small scale the map fits
// the pool, so a pool carried over from the previous row would read 0.
func TestFaultColumnsStartCold(t *testing.T) {
	for _, exp := range []struct {
		runner Runner
		column string
	}{
		{E1Baselines{}, "mean page faults/query"},
		{E5SharedVsIndependent{}, "total page faults"},
		{E8Strategies{}, "mean page faults/query"},
	} {
		tables, err := exp.runner.Run(Small)
		if err != nil {
			t.Fatal(err)
		}
		tbl := tables[0]
		col := -1
		for i, c := range tbl.Columns {
			if c == exp.column {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("%s: no column %q", tbl.ID, exp.column)
		}
		for _, row := range tbl.Rows {
			if f, err := strconv.ParseFloat(row[col], 64); err != nil || f <= 0 {
				t.Errorf("%s row %v: %s = %s, want > 0", tbl.ID, row[:2], exp.column, row[col])
			}
		}
	}
}

func TestMechanismAdapter(t *testing.T) {
	g := pagedTestGraph(t)
	eval, err := newPagedEvaluator(g, storage.ConnectivityClustered, 128)
	if err != nil {
		t.Fatal(err)
	}
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	sel := obfuscate.MustNewRingBandSelector(0.02*extent, 0.2*extent, 123)
	mech, err := newOpaqueMechanism(g, eval, obfuscatorConfig(obfuscate.Independent, sel))
	if err != nil {
		t.Fatal(err)
	}
	if mech.Name() != "opaque-independent" {
		t.Errorf("Name = %q", mech.Name())
	}
	wl := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 3, Seed: 131})
	acc := storage.NewMemoryGraph(g)
	for i, pr := range wl {
		trueCost, err := search.DijkstraDistance(acc, pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		out, err := mech.Run(obfuscate.Request{User: obfuscate.UserID(string(rune('a' + i))), Source: pr.Source, Dest: pr.Dest, FS: 2, FT: 2}, trueCost)
		if err != nil {
			t.Fatal(err)
		}
		if !out.ExactPath {
			t.Errorf("request %d: OPAQUE mechanism must return the exact path", i)
		}
		if math.Abs(out.BreachProbability-0.25) > 1e-9 {
			t.Errorf("request %d: breach = %v, want 0.25", i, out.BreachProbability)
		}
		if out.ServerSettledNodes <= 0 {
			t.Errorf("request %d: no server work recorded", i)
		}
		if i == 0 && out.ServerPageFaults <= 0 {
			t.Errorf("request 0 on a cold pool: no page faults recorded")
		}
		if out.CandidatePairs != 4 {
			t.Errorf("request %d: candidate pairs = %d, want 4", i, out.CandidatePairs)
		}
	}
}
