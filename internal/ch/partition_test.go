package ch

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// buildTestPartition returns partitions exercising the battery's shapes:
// the trivial single cell, a two-way cut, many tiny cells, and a crafted
// assignment with cells that have no internal arcs (round-robin by node ID,
// which makes nearly every node a boundary node).
func buildTestPartitions(t *testing.T, g *roadnet.Graph) map[string]*roadnet.Partition {
	t.Helper()
	out := map[string]*roadnet.Partition{}
	for name, cells := range map[string]int{"one-cell": 1, "two-cells": 2, "many-tiny": g.NumNodes() / 3} {
		p, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: cells, Seed: 99})
		if err != nil {
			t.Fatalf("BuildPartition(%s): %v", name, err)
		}
		out[name] = p
	}
	asg := make([]int32, g.NumNodes())
	for v := range asg {
		asg[v] = int32(v % 4) // round-robin: cells are ID classes, no internal arcs on ring-ish graphs
	}
	p, err := roadnet.NewPartitionFromAssignment(g, asg, 4)
	if err != nil {
		t.Fatal(err)
	}
	out["no-internal-arcs"] = p
	return out
}

// TestPartitionedBuildMatchesReference: a customizable overlay contracted in
// partition order ranks every boundary node above every interior node and
// answers point and many-to-many queries exactly like reference Dijkstra,
// across partition shapes from one cell to degenerate all-boundary
// assignments.
func TestPartitionedBuildMatchesReference(t *testing.T) {
	cases := []struct {
		n, extra int
		seed     int64
	}{
		{n: 40, extra: 60, seed: 21},
		{n: 150, extra: 200, seed: 22},
		{n: 90, extra: 0, seed: 23}, // tree-ish: unique paths
	}
	for _, tc := range cases {
		g := randomIntCostGraph(t, tc.n, tc.extra, tc.seed)
		for name, p := range buildTestPartitions(t, g) {
			o, err := BuildCustomizablePartitioned(g, p)
			if err != nil {
				t.Fatalf("BuildCustomizablePartitioned(n=%d, %s): %v", tc.n, name, err)
			}
			checkBoundaryRanksLast(t, name, o, p)
			checkAgainstReference(t, storage.NewMemoryGraph(g), o, 40, tc.seed+1000)
		}
	}
}

// checkBoundaryRanksLast asserts the layering partition order produces:
// every boundary node of p ranks above every interior node.
func checkBoundaryRanksLast(t *testing.T, name string, o *Overlay, p *roadnet.Partition) {
	t.Helper()
	lowestBoundary, highestInterior := int32(o.n), int32(-1)
	for v, r := range o.rank {
		if p.IsBoundary(roadnet.NodeID(v)) {
			lowestBoundary = min(lowestBoundary, r)
		} else {
			highestInterior = max(highestInterior, r)
		}
	}
	if highestInterior > lowestBoundary {
		t.Fatalf("%s: an interior node ranks %d, above the lowest boundary rank %d", name, highestInterior, lowestBoundary)
	}
}

// classifiedChanges builds a change set that deliberately hits interior
// arcs, boundary–boundary arcs, cross-cell (cut) arcs and arcs with parallel
// lanes, each re-priced by newCost, preceded by no-op restatements of the
// current cost of two single-lane arcs (a later change of the same arc wins).
// A nil newCost yields the restatements alone.
func classifiedChanges(g *roadnet.Graph, p *roadnet.Partition, rng *rand.Rand, newCost func(old float64) float64) []roadnet.ArcWeightChange {
	var interior, boundary, cross, parallel, single []roadnet.ArcWeightChange
	for v := 0; v < g.NumNodes(); v++ {
		lanes := map[roadnet.NodeID]int{}
		for _, a := range g.Arcs(roadnet.NodeID(v)) {
			lanes[a.To]++
		}
		for _, a := range g.Arcs(roadnet.NodeID(v)) {
			if a.To == roadnet.NodeID(v) {
				continue
			}
			ch := roadnet.ArcWeightChange{From: roadnet.NodeID(v), To: a.To, NewCost: a.Cost}
			if lanes[a.To] > 1 {
				// A change addresses every lane of the pair at once.
				parallel = append(parallel, ch)
				continue
			}
			single = append(single, ch)
			switch {
			case p.CellOf(roadnet.NodeID(v)) != p.CellOf(a.To):
				cross = append(cross, ch)
			case p.IsBoundary(roadnet.NodeID(v)) && p.IsBoundary(a.To):
				boundary = append(boundary, ch)
			default:
				interior = append(interior, ch)
			}
		}
	}
	out := []roadnet.ArcWeightChange{single[rng.Intn(len(single))], single[rng.Intn(len(single))]}
	if newCost == nil {
		return out
	}
	pick := func(pool []roadnet.ArcWeightChange, k int) {
		for i := 0; i < k && len(pool) > 0; i++ {
			ch := pool[rng.Intn(len(pool))]
			ch.NewCost = newCost(ch.NewCost)
			out = append(out, ch)
		}
	}
	pick(interior, 3)
	pick(boundary, 2)
	pick(cross, 2)
	pick(parallel, 2)
	return out
}

// gridIntCostGraph builds a w×h lattice with integer costs: spatially
// coherent, so an inertial partition has genuinely interior arcs (unlike
// randomIntCostGraph, whose random chain a spatial cut crosses everywhere).
// With parallelEvery > 0 every parallelEvery-th edge gets a second lane at a
// different cost.
func gridIntCostGraph(t *testing.T, w, h int, seed int64, parallelEvery int) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.NewGraph(w*h, 4*w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.AddNode(float64(x)*100, float64(y)*100)
		}
	}
	id := func(x, y int) roadnet.NodeID { return roadnet.NodeID(y*w + x) }
	edges := 0
	edge := func(a, b roadnet.NodeID) {
		g.MustAddBidirectionalEdge(a, b, float64(1+rng.Intn(9)))
		if edges++; parallelEvery > 0 && edges%parallelEvery == 0 {
			g.MustAddBidirectionalEdge(a, b, float64(1+rng.Intn(9)))
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				edge(id(x, y), id(x, y+1))
			}
		}
	}
	g.Freeze()
	return g
}

// TestRecustomizeIncrementalArcAccounting pins the work RecustomizeStats
// reports on a partition-ordered overlay: a change confined to one cell's
// interior re-derives a small share of the arena, a change confined to
// boundary–boundary arcs re-derives some arcs, and a no-op re-derives
// nothing at all. Each refreshed overlay answers like reference Dijkstra.
func TestRecustomizeIncrementalArcAccounting(t *testing.T) {
	g := gridIntCostGraph(t, 16, 12, 51, 0)
	p, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildCustomizablePartitioned(g, p)
	if err != nil {
		t.Fatal(err)
	}

	// Find an arc strictly inside a cell (neither endpoint boundary).
	var interiorChange *roadnet.ArcWeightChange
	var boundaryChange *roadnet.ArcWeightChange
	for v := 0; v < g.NumNodes() && (interiorChange == nil || boundaryChange == nil); v++ {
		for _, a := range g.Arcs(roadnet.NodeID(v)) {
			if a.To == roadnet.NodeID(v) {
				continue
			}
			vb, tb := p.IsBoundary(roadnet.NodeID(v)), p.IsBoundary(a.To)
			if interiorChange == nil && !vb && !tb {
				interiorChange = &roadnet.ArcWeightChange{From: roadnet.NodeID(v), To: a.To, NewCost: a.Cost + 7}
			}
			if boundaryChange == nil && vb && tb {
				boundaryChange = &roadnet.ArcWeightChange{From: roadnet.NodeID(v), To: a.To, NewCost: a.Cost + 5}
			}
		}
	}
	if interiorChange == nil || boundaryChange == nil {
		t.Fatalf("grid graph/partition produced no suitable arcs (interior=%v boundary=%v)",
			interiorChange != nil, boundaryChange != nil)
	}

	g2, err := g.WithUpdatedWeights([]roadnet.ArcWeightChange{*interiorChange})
	if err != nil {
		t.Fatal(err)
	}
	o2, stats, err := o.RecustomizeIncremental(g2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ArcsRederived < 1 || stats.ArcsRederived >= len(o.arcs)/4 {
		t.Fatalf("one interior change re-derived %d of %d arcs", stats.ArcsRederived, len(o.arcs))
	}
	checkAgainstReference(t, storage.NewMemoryGraph(g2), o2, 20, 61)

	g3, err := g2.WithUpdatedWeights([]roadnet.ArcWeightChange{*boundaryChange})
	if err != nil {
		t.Fatal(err)
	}
	o3, stats, err := o2.RecustomizeIncremental(g3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ArcsRederived < 1 {
		t.Fatalf("boundary-only change re-derived %d arcs, want at least the changed one", stats.ArcsRederived)
	}
	checkAgainstReference(t, storage.NewMemoryGraph(g3), o3, 20, 62)

	// A no-op "update" (same costs) touches nothing.
	g4, err := g3.WithUpdatedWeights([]roadnet.ArcWeightChange{{From: boundaryChange.From, To: boundaryChange.To, NewCost: boundaryChange.NewCost}})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err = o3.RecustomizeIncremental(g4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ArcsRederived != 0 {
		t.Fatalf("no-op update did work: %d arcs", stats.ArcsRederived)
	}
}

// TestPartitionedOverlayV3RoundTrip: a partition-ordered overlay survives
// the OCH1 v3 save/load round-trip — ranks and arena intact, queries equal
// reference — and, once Matches has seen its graph, absorbs its first weight
// update arc by arc like any later one. Only an overlay never matched against
// its graph has nothing to diff against and falls back to one full pass.
func TestPartitionedOverlayV3RoundTrip(t *testing.T) {
	g := randomIntCostGraph(t, 120, 150, 71)
	p, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildCustomizablePartitioned(g, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(o, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(writeBytes(t, loaded), writeBytes(t, o)) {
		t.Fatal("loaded overlay's ranks, levels or arena differ from the built ones")
	}
	if err := loaded.Matches(g); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, storage.NewMemoryGraph(g), loaded, 25, 72)

	rng := rand.New(rand.NewSource(73))
	g2, err := g.WithUpdatedWeights(randomWeightChanges(g, rng, 3))
	if err != nil {
		t.Fatal(err)
	}
	o2, stats, err := loaded.RecustomizeIncremental(g2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Full {
		t.Fatal("first update of a loaded and matched overlay fell back to the full pass")
	}
	checkAgainstReference(t, storage.NewMemoryGraph(g2), o2, 20, 74)

	if err := Write(o, &buf); err != nil {
		t.Fatal(err)
	}
	unmatched, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	o2, stats, err = unmatched.RecustomizeIncremental(g2)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full || stats.ArcsRederived != len(o.arcs) {
		t.Fatalf("unmatched loaded overlay: stats %+v, want a full fall-back over all %d arcs", stats, len(o.arcs))
	}
	checkAgainstReference(t, storage.NewMemoryGraph(g2), o2, 20, 75)
	g3, err := g2.WithUpdatedWeights(randomWeightChanges(g2, rng, 2))
	if err != nil {
		t.Fatal(err)
	}
	o3, stats, err := o2.RecustomizeIncremental(g3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Full {
		t.Fatal("update after the fall-back must be arc-level again")
	}
	checkAgainstReference(t, storage.NewMemoryGraph(g3), o3, 20, 76)
}

// writeV2 replicates the retired version-2 writer byte for byte: the same
// payload as version 3, inside a version-2 envelope. It exists so the compatibility test reads a genuine v2 stream
// rather than a fixture that silently drifts.
func writeV2(t *testing.T, o *Overlay, buf *bytes.Buffer) {
	t.Helper()
	bw, err := storage.NewBinaryWriter(buf, OverlayMagic, 2)
	if err != nil {
		t.Fatal(err)
	}
	bw.U32(uint32(o.n))
	bw.U32(uint32(o.graphArcs))
	bw.U64(o.checksum)
	bw.U64(o.topoSum)
	bw.U32(flagCustomizable)
	bw.U32(uint32(o.nOriginal))
	bw.U32(uint32(len(o.arcs)))
	for _, r := range o.rank {
		bw.U32(uint32(r))
	}
	for _, l := range o.level {
		bw.U32(uint32(l))
	}
	for i := range o.arcs {
		a := &o.arcs[i]
		bw.U32(uint32(a.from))
		bw.U32(uint32(a.to))
		bw.I32(a.childA)
		bw.I32(a.childB)
		bw.F64(a.cost)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOverlayV2Compatibility: a version-2 file still loads, answers
// queries, and re-customizes arc by arc.
func TestOverlayV2Compatibility(t *testing.T) {
	g := randomIntCostGraph(t, 80, 100, 81)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeV2(t, o, &buf)
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatalf("reading v2 overlay: %v", err)
	}
	if err := loaded.Matches(g); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, storage.NewMemoryGraph(g), loaded, 25, 82)

	rng := rand.New(rand.NewSource(83))
	g2, err := g.WithUpdatedWeights(randomWeightChanges(g, rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	re, stats, err := loaded.RecustomizeIncremental(g2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Full || stats.ArcsRederived == 0 {
		t.Fatalf("v2 overlay incremental stats = %+v, want an arc-level update", stats)
	}
	checkAgainstReference(t, storage.NewMemoryGraph(g2), re, 20, 84)

	// A v2 envelope claiming the partition flag is corrupt: version 3
	// introduced that section, so Read must refuse before decoding records.
	var bad bytes.Buffer
	bw, err := storage.NewBinaryWriter(&bad, OverlayMagic, 2)
	if err != nil {
		t.Fatal(err)
	}
	bw.U32(uint32(o.n))
	bw.U32(uint32(o.graphArcs))
	bw.U64(o.checksum)
	bw.U64(o.topoSum)
	bw.U32(flagCustomizable | flagPartitioned)
	bw.U32(uint32(o.nOriginal))
	bw.U32(uint32(len(o.arcs)))
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&bad); err == nil || !strings.Contains(err.Error(), "partition section") {
		t.Fatalf("v2 file with partition flag: got %v, want partition-section error", err)
	}
}

// FuzzPartitionedRecustomize is the partition fuzz target: random graph
// shape, random cell count, random change set — incremental re-customization
// must equal the full pass arc for arc, and spot queries and a path-recording
// table on the re-customized overlay must equal reference Dijkstra.
func FuzzPartitionedRecustomize(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(60), uint8(4), uint8(3))
	f.Add(int64(2), uint8(12), uint8(0), uint8(12), uint8(1))
	f.Add(int64(3), uint8(90), uint8(120), uint8(1), uint8(5))
	f.Add(int64(4), uint8(25), uint8(30), uint8(25), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, extra, cells, nChanges uint8) {
		nn := int(n)%180 + 4
		g := randomIntCostGraph(t, nn, int(extra), seed)
		p, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: int(cells), Seed: seed})
		if err != nil {
			t.Fatalf("BuildPartition: %v", err)
		}
		o, err := BuildCustomizablePartitioned(g, p)
		if err != nil {
			t.Fatalf("BuildCustomizablePartitioned: %v", err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		g2, err := g.WithUpdatedWeights(randomWeightChanges(g, rng, int(nChanges)%8+1))
		if err != nil {
			t.Fatal(err)
		}
		inc, stats, err := o.RecustomizeIncremental(g2)
		if err != nil {
			t.Fatalf("incremental: %v", err)
		}
		if stats.Full {
			t.Fatal("primed overlay fell back to full re-customization")
		}
		full, err := o.Recustomize(g2)
		if err != nil {
			t.Fatalf("full: %v", err)
		}
		checkSameWeightLayer(t, inc, full)
		checkAgainstReference(t, storage.NewMemoryGraph(g2), inc, 10, seed+9)
		checkTableAgainstReference(t, g2, NewMTM(inc, nil), randomEndpointSet(rng, nn, 4), randomEndpointSet(rng, nn, 4))
	})
}
