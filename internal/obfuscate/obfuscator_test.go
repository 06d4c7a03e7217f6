package obfuscate

import (
	"testing"

	"opaque/internal/roadnet"
)

func TestNewValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := New(nil, Config{Selector: testSelector(g, 1)}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(g, Config{}); err == nil {
		t.Error("missing selector accepted")
	}
	if _, err := New(g, Config{Selector: testSelector(g, 1), Mode: "bogus"}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := New(g, Config{Selector: testSelector(g, 1), Cluster: "bogus"}); err == nil {
		t.Error("unknown cluster policy accepted")
	}
	if _, err := New(g, Config{Selector: testSelector(g, 1), MaxClusterSize: -1}); err == nil {
		t.Error("negative cluster size accepted")
	}
}

func TestObfuscateEmptyAndInvalidBatch(t *testing.T) {
	g := testGraph(t)
	o := MustNew(g, Config{Mode: Independent, Selector: testSelector(g, 1)})
	if _, err := o.Obfuscate(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := o.Obfuscate([]Request{{User: "", Source: 0, Dest: 1}}); err == nil {
		t.Error("invalid request accepted")
	}
}

func TestIndependentObfuscation(t *testing.T) {
	g := testGraph(t)
	o := MustNew(g, Config{Mode: Independent, Cluster: ClusterNone, Selector: testSelector(g, 2), Seed: 3})
	reqs := testRequests(g, 10, 3, 5, 7)
	plan, err := o.Obfuscate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if len(plan.Queries) != len(reqs) {
		t.Fatalf("independent mode produced %d queries for %d requests", len(plan.Queries), len(reqs))
	}
	for i, r := range reqs {
		q, ok := plan.QueryFor(i)
		if !ok {
			t.Fatalf("request %d unassigned", i)
		}
		if len(q.Sources) != 3 || len(q.Dests) != 5 {
			t.Errorf("request %d: |S|=%d |T|=%d, want 3/5", i, len(q.Sources), len(q.Dests))
		}
		if !q.Covers(r) {
			t.Errorf("request %d not covered by its query", i)
		}
		if len(q.Members) != 1 {
			t.Errorf("independent query has %d members, want 1", len(q.Members))
		}
		// S and T must be disjoint so the server cannot rule out pairs.
		for _, s := range q.Sources {
			for _, d := range q.Dests {
				if s == d {
					t.Errorf("request %d: node %d appears in both S and T", i, s)
				}
			}
		}
	}
}

func TestSharedObfuscation(t *testing.T) {
	g := testGraph(t)
	o := MustNew(g, Config{
		Mode:           Shared,
		Cluster:        ClusterSpatialGreedy,
		Selector:       testSelector(g, 4),
		MaxClusterSize: 6,
		MaxClusterSpan: 0.5,
		Seed:           5,
	})
	reqs := testRequests(g, 24, 4, 4, 11)
	plan, err := o.Obfuscate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if len(plan.Queries) >= len(reqs) {
		t.Errorf("shared mode produced %d queries for %d requests — expected fewer", len(plan.Queries), len(reqs))
	}
	totalMembers := 0
	for _, q := range plan.Queries {
		totalMembers += len(q.Members)
		if len(q.Members) > 6 {
			t.Errorf("cluster size %d exceeds cap 6", len(q.Members))
		}
		if len(q.Sources) < 4 || len(q.Dests) < 4 {
			t.Errorf("shared query smaller than required protection: |S|=%d |T|=%d", len(q.Sources), len(q.Dests))
		}
	}
	if totalMembers != len(reqs) {
		t.Errorf("members across queries = %d, want %d", totalMembers, len(reqs))
	}
	// Shared plans should need fewer total endpoints than independent ones.
	oInd := MustNew(g, Config{Mode: Independent, Cluster: ClusterNone, Selector: testSelector(g, 4), Seed: 5})
	indPlan, err := oInd.Obfuscate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalCandidatePairs() >= indPlan.TotalCandidatePairs() {
		t.Errorf("shared candidate pairs %d not below independent %d", plan.TotalCandidatePairs(), indPlan.TotalCandidatePairs())
	}
}

func TestSharedHonoursMaxProtectionOfMembers(t *testing.T) {
	g := testGraph(t)
	o := MustNew(g, Config{Mode: Shared, Cluster: ClusterRandom, Selector: testSelector(g, 6), MaxClusterSize: 4, Seed: 7})
	reqs := testRequests(g, 4, 2, 2, 13)
	// One member demands much stronger protection.
	reqs[2].FS, reqs[2].FT = 9, 7
	plan, err := o.Obfuscate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	q, _ := plan.QueryFor(2)
	if len(q.Sources) < 9 || len(q.Dests) < 7 {
		t.Errorf("query covering the demanding member has |S|=%d |T|=%d, want >= 9/7", len(q.Sources), len(q.Dests))
	}
}

func TestClusterPolicies(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(g, 12, 2, 2, 17)
	for _, policy := range []ClusterPolicy{ClusterNone, ClusterRandom, ClusterSpatialGreedy} {
		o := MustNew(g, Config{Mode: Shared, Cluster: policy, Selector: testSelector(g, 8), MaxClusterSize: 5, Seed: 9})
		plan, err := o.Obfuscate(reqs)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%s: invalid plan: %v", policy, err)
		}
		if policy == ClusterNone && len(plan.Queries) != len(reqs) {
			t.Errorf("ClusterNone produced %d queries, want %d", len(plan.Queries), len(reqs))
		}
		for _, q := range plan.Queries {
			if len(q.Members) > 5 && policy != ClusterNone {
				t.Errorf("%s: cluster of %d members exceeds cap 5", policy, len(q.Members))
			}
		}
	}
}

func TestObfuscateDeterministicForSeed(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(g, 8, 3, 3, 19)
	mk := func() Plan {
		o := MustNew(g, Config{Mode: Shared, Cluster: ClusterSpatialGreedy, Selector: testSelector(g, 21), MaxClusterSize: 4, Seed: 22})
		p, err := o.Obfuscate(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	if len(a.Queries) != len(b.Queries) {
		t.Fatalf("query counts differ: %d vs %d", len(a.Queries), len(b.Queries))
	}
	for i := range a.Queries {
		if len(a.Queries[i].Sources) != len(b.Queries[i].Sources) || len(a.Queries[i].Dests) != len(b.Queries[i].Dests) {
			t.Errorf("query %d sizes differ between identical runs", i)
		}
		for j := range a.Queries[i].Sources {
			if a.Queries[i].Sources[j] != b.Queries[i].Sources[j] {
				t.Fatalf("query %d source order differs", i)
			}
		}
	}
}

func TestPlanHelpers(t *testing.T) {
	g := testGraph(t)
	o := MustNew(g, Config{Mode: Independent, Cluster: ClusterNone, Selector: testSelector(g, 23), Seed: 24})
	reqs := testRequests(g, 3, 2, 2, 25)
	plan, err := o.Obfuscate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.QueryFor(99); ok {
		t.Error("QueryFor out-of-range index returned ok")
	}
	if plan.TotalCandidatePairs() < 3*4 {
		t.Errorf("TotalCandidatePairs = %d, want >= 12", plan.TotalCandidatePairs())
	}
	// A corrupted plan must fail validation.
	bad := plan
	bad.Assignment = []int{0, 0, 0}
	if err := bad.Validate(); err == nil {
		t.Error("plan whose queries do not cover their requests passed validation")
	}
}

func TestFakesExcludeOtherMembersEndpoints(t *testing.T) {
	// The fake padding must keep S and T disjoint even when several members
	// are merged.
	g := testGraph(t)
	o := MustNew(g, Config{Mode: Shared, Cluster: ClusterRandom, Selector: testSelector(g, 31), MaxClusterSize: 8, Seed: 32})
	reqs := testRequests(g, 8, 6, 6, 33)
	plan, err := o.Obfuscate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range plan.Queries {
		inS := map[roadnet.NodeID]struct{}{}
		for _, s := range q.Sources {
			inS[s] = struct{}{}
		}
		for _, d := range q.Dests {
			if _, both := inS[d]; both {
				// Only allowed when a member's true source equals another
				// member's true destination.
				legitimate := false
				for _, m := range q.Members {
					if m.Source == d || m.Dest == d {
						legitimate = true
					}
				}
				if !legitimate {
					t.Errorf("fake node %d appears in both S and T", d)
				}
			}
		}
	}
}

// TestSharedDegeneratesToIndependentWithClusterNone checks that Shared +
// ClusterNone behaves exactly like Independent in structure.
func TestSharedDegeneratesToIndependentWithClusterNone(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(g, 5, 2, 3, 35)
	shared := MustNew(g, Config{Mode: Shared, Cluster: ClusterNone, Selector: testSelector(g, 36), Seed: 37})
	plan, err := shared.Obfuscate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Queries) != len(reqs) {
		t.Errorf("Shared+ClusterNone produced %d queries, want %d", len(plan.Queries), len(reqs))
	}
	for _, q := range plan.Queries {
		if len(q.Members) != 1 {
			t.Errorf("query has %d members, want 1", len(q.Members))
		}
	}
}

func TestTinyGraphObfuscation(t *testing.T) {
	// A 4-node graph cannot supply many distinct fakes; the obfuscator must
	// still produce a covering (if weaker) plan rather than loop forever.
	g := roadnet.NewGraph(4, 6)
	for i := 0; i < 4; i++ {
		g.AddNode(float64(i), 0)
	}
	for i := 0; i < 3; i++ {
		g.MustAddBidirectionalEdge(roadnet.NodeID(i), roadnet.NodeID(i+1), 1)
	}
	g.Freeze()
	o := MustNew(g, Config{Mode: Independent, Cluster: ClusterNone, Selector: NewUniformSelector(1), Seed: 2})
	plan, err := o.Obfuscate([]Request{{User: "a", Source: 0, Dest: 3, FS: 2, FT: 2}})
	if err != nil {
		t.Fatal(err)
	}
	q := plan.Queries[0]
	if !q.Covers(plan.Requests[0]) {
		t.Error("query does not cover the request")
	}
}
