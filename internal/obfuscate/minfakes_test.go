package obfuscate

import (
	"testing"

	"opaque/internal/roadnet"
)

func TestMinFakesPerSideValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := New(g, Config{Selector: testSelector(g, 1), MinFakesPerSide: -1}); err == nil {
		t.Error("negative MinFakesPerSide accepted")
	}
}

// TestMinFakesPerSideProtectsAgainstFullCollusion builds a shared query from
// enough true endpoints to satisfy fS/fT without any fakes, and checks that
// the fake floor still inserts decoys so the sets are strictly larger than
// the member endpoints — the mitigation for the E9 finding that a fake-free
// shared query is fully exposed to an (k−1)-coalition.
func TestMinFakesPerSideProtectsAgainstFullCollusion(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(g, 6, 4, 4, 55) // 6 true sources/dests >= fS=fT=4

	countTrue := func(q ObfuscatedQuery) (srcTrue, dstTrue int) {
		trueSrc := map[roadnet.NodeID]struct{}{}
		trueDst := map[roadnet.NodeID]struct{}{}
		for _, m := range q.Members {
			trueSrc[m.Source] = struct{}{}
			trueDst[m.Dest] = struct{}{}
		}
		return len(trueSrc), len(trueDst)
	}

	build := func(minFakes int) ObfuscatedQuery {
		o := MustNew(g, Config{
			Mode:            Shared,
			Cluster:         ClusterRandom,
			Selector:        testSelector(g, 56),
			MaxClusterSize:  len(reqs),
			MinFakesPerSide: minFakes,
			Seed:            57,
		})
		plan, err := o.Obfuscate(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Queries) != 1 {
			t.Fatalf("expected one shared query, got %d", len(plan.Queries))
		}
		return plan.Queries[0]
	}

	bare := build(0)
	srcTrue, dstTrue := countTrue(bare)
	if len(bare.Sources) != srcTrue || len(bare.Dests) != dstTrue {
		t.Fatalf("without a floor the shared query should contain only true endpoints (got |S|=%d true=%d, |T|=%d true=%d)",
			len(bare.Sources), srcTrue, len(bare.Dests), dstTrue)
	}

	floored := build(3)
	srcTrue, dstTrue = countTrue(floored)
	if len(floored.Sources) < srcTrue+3 {
		t.Errorf("|S|=%d, want at least %d true + 3 fakes", len(floored.Sources), srcTrue)
	}
	if len(floored.Dests) < dstTrue+3 {
		t.Errorf("|T|=%d, want at least %d true + 3 fakes", len(floored.Dests), dstTrue)
	}
	if err := (Plan{Queries: []ObfuscatedQuery{floored}, Requests: reqs, Assignment: allToFirst(len(reqs))}).Validate(); err != nil {
		t.Errorf("floored plan invalid: %v", err)
	}
}

func allToFirst(n int) []int { return make([]int, n) }
