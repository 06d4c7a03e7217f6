package obfuscate

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"opaque/internal/roadnet"
)

// latticeGraph is a side×side grid of nodes at unit spacing, without arcs:
// the selectors only read coordinates and weights.
func latticeGraph(side int) *roadnet.Graph {
	g := roadnet.NewGraph(side*side, 0)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			g.AddNode(float64(x), float64(y))
		}
	}
	g.Freeze()
	return g
}

// TestRingBandDrawIsUniform draws many fakes around the centre of a 9×9
// lattice from the band [0, 2.5] — 21 nodes, the truth among them — with four
// band members excluded, and checks with a chi-square test that every one of
// the 16 eligible nodes is picked equally often and nothing else ever is.
func TestRingBandDrawIsUniform(t *testing.T) {
	g := latticeGraph(9)
	truth := roadnet.NodeID(40) // (4, 4)
	exclude := map[roadnet.NodeID]struct{}{
		31: {}, 41: {}, 22: {}, 58: {}, // inside the band
		0: {}, // outside it
	}
	sel := MustNewRingBandSelector(0, 2.5, 17)
	const trials, count = 20000, 3
	hits := make(map[roadnet.NodeID]int)
	for i := 0; i < trials; i++ {
		fakes := sel.SelectFakes(g, truth, count, exclude)
		if len(fakes) != count {
			t.Fatalf("trial %d: %d fakes, want %d", i, len(fakes), count)
		}
		for j, f := range fakes {
			if f == truth {
				t.Fatalf("trial %d: the truth was drawn", i)
			}
			if _, ex := exclude[f]; ex {
				t.Fatalf("trial %d: excluded node %d was drawn", i, f)
			}
			if slices.Contains(fakes[:j], f) {
				t.Fatalf("trial %d: node %d drawn twice", i, f)
			}
			hits[f]++
		}
	}
	eligible := 0
	chi2 := 0.0
	expected := float64(trials*count) / 16
	for _, id := range g.NodesInBand(nil, 4, 4, 0, 2.5) {
		if _, ex := exclude[id]; ex || id == truth {
			continue
		}
		eligible++
		d := float64(hits[id]) - expected
		chi2 += d * d / expected
	}
	if eligible != 16 || len(hits) != 16 {
		t.Fatalf("%d eligible band members, %d distinct picks; want 16 and 16", eligible, len(hits))
	}
	// 15 degrees of freedom: P(χ² > 37.70) = 0.001.
	if chi2 > 37.70 {
		t.Errorf("chi-square %.2f over 15 degrees of freedom: picks are not uniform (%v)", chi2, hits)
	}
}

// TestDrawExcludingEdgeCases pins drawExcluding's contract: min(count,
// |pool∖exclude∖{truth}|) distinct acceptable members, all of them once the
// count reaches the eligible set.
func TestDrawExcludingEdgeCases(t *testing.T) {
	pool := func(n int) []roadnet.NodeID {
		out := make([]roadnet.NodeID, n)
		for i := range out {
			out[i] = roadnet.NodeID(i)
		}
		return out
	}
	allBut := func(n int, keep ...roadnet.NodeID) map[roadnet.NodeID]struct{} {
		ex := make(map[roadnet.NodeID]struct{})
		for i := 0; i < n; i++ {
			if !slices.Contains(keep, roadnet.NodeID(i)) {
				ex[roadnet.NodeID(i)] = struct{}{}
			}
		}
		return ex
	}
	cases := []struct {
		name    string
		pool    []roadnet.NodeID
		truth   roadnet.NodeID
		count   int
		exclude map[roadnet.NodeID]struct{}
		want    int
	}{
		{"plenty", pool(20), 3, 5, map[roadnet.NodeID]struct{}{7: {}}, 5},
		{"count equals eligible", pool(20), 3, 18, map[roadnet.NodeID]struct{}{7: {}}, 18},
		{"count beyond eligible", pool(20), 3, 50, map[roadnet.NodeID]struct{}{7: {}}, 18},
		{"almost all excluded", pool(200), 0, 5, allBut(200, 0, 17, 199), 2},
		{"all excluded", pool(10), 0, 3, allBut(10), 0},
		{"only the truth", []roadnet.NodeID{4}, 4, 3, nil, 0},
		{"empty pool", nil, 0, 3, nil, 0},
		{"zero count", pool(20), 3, 0, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eligible := map[roadnet.NodeID]bool{}
			for _, id := range tc.pool {
				if _, ex := tc.exclude[id]; !ex && id != tc.truth {
					eligible[id] = true
				}
			}
			got := drawExcluding(slices.Clone(tc.pool), tc.truth, tc.count, tc.exclude, newSelectorRNG(5))
			if len(got) != tc.want {
				t.Fatalf("drew %d, want %d: %v", len(got), tc.want, got)
			}
			for i, id := range got {
				if !eligible[id] {
					t.Errorf("drew ineligible node %d", id)
				}
				if slices.Contains(got[:i], id) {
					t.Errorf("drew node %d twice", id)
				}
			}
			if tc.count >= len(eligible) && len(got) != len(eligible) {
				t.Errorf("count %d covers all %d eligible nodes but drew %d", tc.count, len(eligible), len(got))
			}
		})
	}
}

// TestRingBandAlmostAllExcluded runs the same corner through the selector: a
// band that already covers the whole map cannot widen its way out, so the
// two eligible nodes left are all it can return.
func TestRingBandAlmostAllExcluded(t *testing.T) {
	g := latticeGraph(9)
	exclude := make(map[roadnet.NodeID]struct{})
	for id := roadnet.NodeID(0); int(id) < g.NumNodes(); id++ {
		if id != 5 && id != 77 {
			exclude[id] = struct{}{}
		}
	}
	got := MustNewRingBandSelector(0, 100, 3).SelectFakes(g, 40, 5, exclude)
	slices.Sort(got)
	if !slices.Equal(got, []roadnet.NodeID{5, 77}) {
		t.Errorf("SelectFakes = %v, want [5 77]", got)
	}
}

// TestSelectorsDeterministicPerSeed replays a sequence of calls with varying
// exclusion sets on two selectors of the same seed: every call must agree,
// not just the first.
func TestSelectorsDeterministicPerSeed(t *testing.T) {
	g := testGraph(t)
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	kinds := map[string]func() EndpointSelector{
		"ringband": func() EndpointSelector { return MustNewRingBandSelector(0.02*extent, 0.2*extent, 42) },
		"density":  func() EndpointSelector { return MustNewDensityAwareSelector(0.2*extent, 42) },
		"uniform":  func() EndpointSelector { return NewUniformSelector(42) },
	}
	for name, mk := range kinds {
		a, b := mk(), mk()
		exclude := map[roadnet.NodeID]struct{}{}
		for call := 0; call < 20; call++ {
			truth := roadnet.NodeID(call * 53 % g.NumNodes())
			fa := a.SelectFakes(g, truth, 2+call%7, exclude)
			fb := b.SelectFakes(g, truth, 2+call%7, exclude)
			if !slices.Equal(fa, fb) {
				t.Fatalf("%s call %d: %v vs %v", name, call, fa, fb)
			}
			for _, f := range fa {
				exclude[f] = struct{}{}
			}
		}
	}
}

// TestDensityAwareMatchesFullSortReference recomputes one density-aware draw
// by hand — same enumeration, same key stream, every key sorted by larger
// key then lower id — and expects the selector's exact output.
func TestDensityAwareMatchesFullSortReference(t *testing.T) {
	type keyed struct {
		id  roadnet.NodeID
		key float64
	}
	g := testGraph(t)
	minX, minY, maxX, maxY := g.Bounds()
	radius := 0.2 * math.Max(maxX-minX, maxY-minY)
	truth, count := roadnet.NodeID(0), 10
	exclude := map[roadnet.NodeID]struct{}{1: {}}

	disc := g.NodesInBand(nil, g.Node(truth).X, g.Node(truth).Y, 0, radius)
	if len(disc) < count+len(exclude)+1 {
		t.Fatalf("disc of %d nodes would widen; pick a larger radius", len(disc))
	}
	rng := newSelectorRNG(5)
	var pool []keyed
	for _, id := range disc {
		if _, ex := exclude[id]; ex || id == truth {
			continue
		}
		w := g.Node(id).Weight
		if w <= 0 {
			w = 1e-6
		}
		u := rng.float64()
		if u == 0 {
			u = 1e-12
		}
		pool = append(pool, keyed{id: id, key: math.Pow(u, 1/w)})
	}
	slices.SortFunc(pool, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(b.key, a.key), cmp.Compare(a.id, b.id))
	})
	want := make([]roadnet.NodeID, count)
	for i := range want {
		want[i] = pool[i].id
	}
	got := MustNewDensityAwareSelector(radius, 5).SelectFakes(g, truth, count, exclude)
	if !slices.Equal(got, want) {
		t.Errorf("SelectFakes = %v, full-sort reference %v", got, want)
	}
}
