package ch

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"opaque/internal/pqueue"
	"opaque/internal/roadnet"
)

// This file is the re-customizable weight layer of the overlay — the half a
// live weight update refreshes. The frozen half (contraction order, shortcut
// structure, the two upward CSR views) never changes after Build; what a
// weight update invalidates is arc costs and shortcut unpack provenance, and
// both follow from one rule of customizable contraction hierarchies:
//
//	cost(x→w) = min( road cost of x→w if it is an original arc,
//	                 cost(x→v) + cost(v→w) over every lower triangle:
//	                 arena arcs x→v, v→w with rank(v) < rank(x), rank(w) )
//
// Both legs of a lower triangle are owned by v — an arena arc is owned by
// its lower-ranked endpoint — so deriving arcs in ascending rank of their
// owner makes every leg final before it is used. Customizable contraction
// guarantees the structure is closed under these triangles (contracting v
// inserted an arc x→w for every in/out pair), which is exactly the property
// that makes the rule sufficient for any weight assignment: afterwards every
// shortest path of the current graph is realised by an up-down path over the
// overlay, so the bidirectional query and the many-to-many sweeps return
// current-graph distances.
//
// The arc whose triangle attains the minimum also takes the two legs as its
// unpack children, so path unpacking follows the metric: a "direct" road
// segment undercut by a detour through a lower-ranked node unpacks into that
// detour. Recursion terminates because a child's via node is always ranked
// below both of its endpoints.
//
// Two routines apply the rule. The full pass (Recustomize, and every Build)
// pushes it forward: nodes bottom-up, each relaxing the targets of all its
// triangles — linear in the triangles of the structure, cell-parallel on a
// partitioned overlay, orders of magnitude faster than a re-contraction
// (experiment E16). The arc-level pass (RecustomizeIncremental) pulls it: a
// rank-ordered worklist seeded with the arcs whose road cost changed
// re-derives one arc at a time from its lower triangles and goes on to the
// arcs above only where the new value can move them — milliseconds for a
// traffic batch (experiment E17).

// Recustomize derives a fresh overlay whose weight layer matches g's current
// arc costs, sharing the frozen topology (ranks, levels, CSR structure) with
// the receiver. The receiver is not modified and keeps serving its own
// metric; callers swap the returned overlay in atomically.
//
// g must be weight-update-compatible with the overlay's source graph: same
// node count, same arc structure (topology checksum), only costs may differ.
// The overlay must have been built customizable (BuildCustomizable); a
// witness-pruned overlay's shortcut set is bound to the metric it was
// contracted under and cannot be refreshed without a full Build.
//
// Recustomize always re-derives every arc; when only a few road costs
// changed, RecustomizeIncremental re-derives just the arcs they move.
func (o *Overlay) Recustomize(g *roadnet.Graph) (*Overlay, error) {
	out, err := o.recustomizeClone(g)
	if err != nil {
		return nil, err
	}
	if err := out.customizeAll(g); err != nil {
		return nil, err
	}
	return out, nil
}

// RecustomizeStats reports what a RecustomizeIncremental call did.
type RecustomizeStats struct {
	// ArcsRederived is the number of arena arcs whose cost and children were
	// recomputed — the unit of work of the arc-level pass.
	ArcsRederived int
	// Cells is the number of partition cells (0 for unpartitioned overlays)
	// and Recustomized lists, ascending, the cells owning at least one
	// re-derived arc. Arcs of the boundary top layer belong to no cell.
	Cells        int
	Recustomized []int
	// Full reports a fall-back to the full pass: the overlay was loaded from
	// disk and never matched against its graph (Matches), so there are no
	// base costs to diff the update against.
	Full bool
}

// RecustomizeIncremental is the arc-level variant of Recustomize: it diffs
// g's arc costs against the base costs the overlay was last customized for,
// re-derives the changed original arcs from their lower triangles, and
// follows a change upwards only through triangles that can move their
// target — a cheaper leg sum that beats the target, or a dearer one that was
// the target's support. Arcs are re-derived in ascending rank of their
// owner, so each is re-derived at most once and from final legs. The result
// equals a full Recustomize against the same graph arc for arc; only the
// work differs, and it is the same on partitioned and unpartitioned
// overlays.
func (o *Overlay) RecustomizeIncremental(g *roadnet.Graph) (*Overlay, RecustomizeStats, error) {
	stats := RecustomizeStats{Cells: o.PartitionCells()}
	o.baseMu.Lock()
	base := o.baseCost
	o.baseMu.Unlock()
	if base == nil {
		out, err := o.Recustomize(g)
		if err != nil {
			return nil, stats, err
		}
		stats.Full = true
		stats.ArcsRederived = len(out.arcs)
		for c := 0; c < stats.Cells; c++ {
			stats.Recustomized = append(stats.Recustomized, c)
		}
		return out, stats, nil
	}
	out, err := o.recustomizeClone(g)
	if err != nil {
		return nil, stats, err
	}
	// The walk is O(arcs), like the clone; everything after it is
	// proportional to the arcs the update moves.
	out.baseCost = make([]float64, o.nOriginal)
	work := pqueue.New()
	err = o.forEachOriginalArc(g, func(idx int, cost float64) {
		out.baseCost[idx] = cost
		if cost != base[idx] {
			work.Push(int32(idx), o.ownerRank(int32(idx)))
		}
	})
	if err != nil {
		return nil, stats, err
	}
	rederived, err := out.rederive(o, work)
	if err != nil {
		return nil, stats, err
	}
	stats.ArcsRederived = len(rederived)
	if p := o.part; p != nil {
		owns := make([]bool, p.cells+1)
		for _, ai := range rederived {
			owns[p.arcLayer[ai]] = true
		}
		for c, own := range owns[:p.cells] {
			if own {
				stats.Recustomized = append(stats.Recustomized, c)
			}
		}
	}
	return out, stats, nil
}

// recustomizeClone validates g against the overlay's frozen half and returns
// a new overlay sharing that frozen half, with private copies of the arena
// and the CSR cost arrays ready for (re)customization. The caller records
// the new base costs.
func (o *Overlay) recustomizeClone(g *roadnet.Graph) (*Overlay, error) {
	if !o.customizable {
		return nil, fmt.Errorf("ch: overlay was built witness-pruned and cannot be re-customized; rebuild with BuildCustomizable to absorb weight updates")
	}
	if g == nil {
		return nil, fmt.Errorf("ch: recustomize against nil graph")
	}
	if g.NumNodes() != o.n || g.NumArcs() != o.graphArcs {
		return nil, fmt.Errorf("ch: overlay topology is %d nodes/%d arcs, graph has %d/%d",
			o.n, o.graphArcs, g.NumNodes(), g.NumArcs())
	}
	if ts := g.TopologyChecksum(); ts != o.topoSum {
		return nil, fmt.Errorf("ch: graph topology checksum %016x does not match overlay topology %016x (arc structure changed; weight updates may only change costs)", ts, o.topoSum)
	}
	return &Overlay{
		n:         o.n,
		nOriginal: o.nOriginal,
		rank:      o.rank,
		level:     o.level,
		arcs:      append([]arc(nil), o.arcs...),
		fwdOff:    o.fwdOff,
		bwdOff:    o.bwdOff,
		fwdTo:     o.fwdTo,
		bwdTo:     o.bwdTo,
		fwdArc:    o.fwdArc,
		bwdArc:    o.bwdArc,
		// The CSR cost copies start as copies, not zeroed arrays: the full
		// pass overwrites every entry anyway, and the arc-level pass patches
		// only the entries of re-derived arcs.
		fwdCost:      append([]float64(nil), o.fwdCost...),
		bwdCost:      append([]float64(nil), o.bwdCost...),
		graphArcs:    o.graphArcs,
		checksum:     GraphChecksum(g),
		topoSum:      o.topoSum,
		customizable: true,
		part:         o.part,
		upd:          o.upd,
		etree:        o.etree,
	}, nil
}

// customizeInPlace is the build-time variant: the overlay is still private
// to the builder, so the pass runs directly on its arrays. It panics on the
// structural errors customizeAll reports, which for a freshly contracted
// arena are internal invariant violations.
func (o *Overlay) customizeInPlace(g *roadnet.Graph) {
	if err := o.customizeAll(g); err != nil {
		panic(err)
	}
}

// forEachOriginalArc re-walks the graph's non-loop arcs in the order the
// arena seeded its originals, verifying the alignment arc by arc — a
// mismatched graph fails loudly instead of producing a silently wrong
// metric — and calls fn with each original's arena index and current graph
// cost.
func (o *Overlay) forEachOriginalArc(g *roadnet.Graph, fn func(idx int, cost float64)) error {
	idx := 0
	for v := 0; v < o.n; v++ {
		for _, ga := range g.Arcs(roadnet.NodeID(v)) {
			if ga.To == roadnet.NodeID(v) {
				continue // self-loops never enter the arena
			}
			if idx >= o.nOriginal {
				return fmt.Errorf("ch: customize: graph has more non-loop arcs than the overlay's %d originals", o.nOriginal)
			}
			a := &o.arcs[idx]
			if a.from != int32(v) || a.to != int32(ga.To) {
				return fmt.Errorf("ch: customize: arena arc %d is %d→%d but graph walk expects %d→%d", idx, a.from, a.to, v, ga.To)
			}
			fn(idx, ga.Cost)
			idx++
		}
	}
	if idx != o.nOriginal {
		return fmt.Errorf("ch: customize: graph has %d non-loop arcs, overlay has %d originals", idx, o.nOriginal)
	}
	return nil
}

// customizeAll is the full pass: it recomputes every arena arc's cost and
// children for g's weights, records g's costs as the new base costs and
// refreshes the CSR cost copies. The caller owns o.arcs, o.fwdCost and
// o.bwdCost exclusively; all other arrays are only read.
func (o *Overlay) customizeAll(g *roadnet.Graph) error {
	// Base weights: original arena arcs take their road segment's current
	// cost, shortcuts start unreachable.
	o.baseCost = make([]float64, o.nOriginal)
	err := o.forEachOriginalArc(g, func(idx int, cost float64) {
		o.baseCost[idx] = cost
		a := &o.arcs[idx]
		a.cost = cost
		a.childA, a.childB = -1, -1
	})
	if err != nil {
		return err
	}
	for i := o.nOriginal; i < len(o.arcs); i++ {
		o.arcs[i].cost = math.Inf(1)
	}

	if p := o.part; p == nil {
		// byRank inverts the rank permutation: byRank[r] is the node
		// contracted r-th.
		byRank := make([]int32, o.n)
		for v, r := range o.rank {
			byRank[r] = int32(v)
		}
		o.trianglePass(byRank, nil)
	} else {
		// Cell passes write disjoint arc sets (their own layer) and read only
		// their own layer plus a private export accumulator, so they run
		// concurrently without synchronisation beyond the join; this is sound
		// because no triangle leg or target ever crosses from one cell's
		// interior into another's (see partition.go).
		exports := make([][]topExport, p.cells)
		var wg sync.WaitGroup
		for c := range exports {
			wg.Add(1)
			go func() {
				defer wg.Done()
				exports[c] = o.cellPass(c)
			}()
		}
		wg.Wait()
		// Fold every cell's exports into the top layer, then run the
		// boundary-node triangle pass. Folding before the pass reproduces the
		// global bottom-up order: every interior node ranks below every
		// boundary node, so all interior relaxations of top arcs precede all
		// boundary-node triangles.
		for _, exp := range exports {
			for i := range exp {
				e := &exp[i]
				if a := &o.arcs[e.arc]; e.cost < a.cost {
					a.cost = e.cost
					a.childA, a.childB = e.childA, e.childB
				}
			}
		}
		o.trianglePass(p.boundaryByRank, nil)
	}

	// A customizable arena cannot hold an unreachable shortcut: the shortcut
	// x→w inserted when contracting v coexists with arena arcs x→v and v→w,
	// so its own triangle always relaxes it to a finite cost.
	for i := o.nOriginal; i < len(o.arcs); i++ {
		if math.IsInf(o.arcs[i].cost, 1) {
			return fmt.Errorf("ch: customize: shortcut %d (%d→%d) has no supporting triangle", i, o.arcs[i].from, o.arcs[i].to)
		}
	}

	// Refresh the flat CSR cost copies the query inner loops read.
	for i, ai := range o.fwdArc {
		o.fwdCost[i] = o.arcs[ai].cost
	}
	for i, ai := range o.bwdArc {
		o.bwdCost[i] = o.arcs[ai].cost
	}
	return nil
}

// upOut returns v's upward out-arcs v→w, rank(w) > rank(v), as the
// head-sorted (w, arena index) columns of the forward CSR view; upIn returns
// the upward in-arcs x→v, rank(x) > rank(v), keyed by x, of the backward one.
func (o *Overlay) upOut(v int32) ([]roadnet.NodeID, []int32) {
	lo, hi := o.fwdOff[v], o.fwdOff[v+1]
	return o.fwdTo[lo:hi], o.fwdArc[lo:hi]
}

func (o *Overlay) upIn(v int32) ([]roadnet.NodeID, []int32) {
	lo, hi := o.bwdOff[v], o.bwdOff[v+1]
	return o.bwdTo[lo:hi], o.bwdArc[lo:hi]
}

// trianglePass relaxes, for every node v of order (ascending rank), the
// target x→w of each triangle x→v→w over v's upward in- and out-arcs. Each
// target is stored under its lower-ranked endpoint — in upOut(x) when
// rank(w) > rank(x), in upIn(w) otherwise — and both cases are handled as
// sorted merge-joins against v's own segments (buildCSR keeps every segment
// head-sorted), so the pass streams contiguous CSR ranges instead of
// performing a random lookup per triangle — the difference between a
// memory-latency-bound and a bandwidth-bound customization on tens of
// millions of triangles.
//
// With acc == nil every target is relaxed in place: the global pass of an
// unpartitioned overlay, and the boundary-node pass of a partitioned one
// (every higher-ranked neighbour of a boundary node is a boundary node, so
// every leg and target is a top arc). With acc set the pass is a cell pass
// over one cell's interiors: a neighbour of an interior node is an interior
// of the same cell, whose segment the cell owns, or a boundary node, whose
// segment is top arcs — those relaxations go to acc instead of the arena.
func (o *Overlay) trianglePass(order []int32, acc *exportAcc) {
	for _, v := range order {
		inHeads, inArcs := o.upIn(v)
		outHeads, outArcs := o.upOut(v)
		if len(inArcs) == 0 || len(outArcs) == 0 {
			continue
		}
		// Targets x→w with rank(x) < rank(w): merge upOut(x) with upOut(v);
		// childA is the in-leg x→v, childB the matched out-leg v→w.
		for j, x := range inHeads {
			leg := inArcs[j]
			tHeads, tArcs := o.upOut(int32(x))
			if acc != nil && o.part.isBoundary[x] {
				o.mergeRelaxExport(tHeads, tArcs, outHeads, outArcs, o.arcs[leg].cost, leg, true, acc)
			} else {
				o.mergeRelax(tHeads, tArcs, outHeads, outArcs, o.arcs[leg].cost, leg, true)
			}
		}
		// Targets x→w with rank(x) > rank(w): merge upIn(w) with upIn(v);
		// childA is the matched in-leg x→v, childB the out-leg v→w.
		for k, w := range outHeads {
			leg := outArcs[k]
			tHeads, tArcs := o.upIn(int32(w))
			if acc != nil && o.part.isBoundary[w] {
				o.mergeRelaxExport(tHeads, tArcs, inHeads, inArcs, o.arcs[leg].cost, leg, false, acc)
			} else {
				o.mergeRelax(tHeads, tArcs, inHeads, inArcs, o.arcs[leg].cost, leg, false)
			}
		}
	}
}

// topExport is one relaxation of a boundary–boundary (top layer) arc
// discovered inside a cell pass: the cell's best triangle through its own
// interiors for that arc, folded into the top layer once all cells joined.
type topExport struct {
	arc            int32 // arena index of the top arc
	childA, childB int32
	cost           float64
}

// exportAcc accumulates a cell pass's top-arc relaxations, keyed by the
// partition's dense top-arc numbering. Entries start at +Inf; touched tracks
// which ones improved so the emitted export list stays proportional to the
// cell's actual boundary coupling.
type exportAcc struct {
	cost           []float64
	childA, childB []int32
	touched        []int32
}

// cellPass runs the triangle pass over cell c's interior nodes and returns
// the relaxations of top arcs it found, in discovery order (deterministic:
// the pass is sequential).
func (o *Overlay) cellPass(c int) []topExport {
	p := o.part
	acc := exportAcc{
		cost:   make([]float64, p.numTop),
		childA: make([]int32, p.numTop),
		childB: make([]int32, p.numTop),
	}
	for i := range acc.cost {
		acc.cost[i] = math.Inf(1)
	}
	o.trianglePass(p.cellRank[c], &acc)
	out := make([]topExport, len(acc.touched))
	for i, ti := range acc.touched {
		out[i] = topExport{
			arc:    p.topArcs[ti],
			childA: acc.childA[ti],
			childB: acc.childB[ti],
			cost:   acc.cost[ti],
		}
	}
	return out
}

// mergeRelaxExport is mergeRelax with the write side redirected: the target
// segment is owned by the top layer, so improvements go to the cell's export
// accumulator (compared against the accumulator, not the arena — other cells
// are relaxing the same top arcs concurrently) instead of the arena.
func (o *Overlay) mergeRelaxExport(tHeads []roadnet.NodeID, tArcs []int32,
	lHeads []roadnet.NodeID, lArcs []int32,
	base float64, fixedLeg int32, fixedIsA bool, acc *exportAcc) {
	p := o.part
	i, j := 0, 0
	for i < len(tHeads) && j < len(lHeads) {
		switch {
		case tHeads[i] < lHeads[j]:
			i++
		case tHeads[i] > lHeads[j]:
			j++
		default:
			h := tHeads[i]
			i2 := i + 1
			for i2 < len(tHeads) && tHeads[i2] == h {
				i2++
			}
			j2 := j + 1
			for j2 < len(lHeads) && lHeads[j2] == h {
				j2++
			}
			for jj := j; jj < j2; jj++ {
				leg := lArcs[jj]
				cand := base + o.arcs[leg].cost
				if math.IsInf(cand, 1) {
					continue
				}
				for ii := i; ii < i2; ii++ {
					ti := p.topIndex[tArcs[ii]]
					if cand < acc.cost[ti] {
						if math.IsInf(acc.cost[ti], 1) {
							acc.touched = append(acc.touched, ti)
						}
						acc.cost[ti] = cand
						if fixedIsA {
							acc.childA[ti], acc.childB[ti] = fixedLeg, leg
						} else {
							acc.childA[ti], acc.childB[ti] = leg, fixedLeg
						}
					}
				}
			}
			i, j = i2, j2
		}
	}
}

// mergeRelax walks two head-sorted CSR segments in lockstep — the *target*
// segment holding the arcs to relax and the *leg* segment holding v's arcs
// supplying the triangle's second edge — and, for every common head, lowers
// each target arc to base + leg cost. fixedLeg is the triangle edge shared
// by every relaxation of this call (the x→v in-leg when targets are
// upOut(x), the v→w out-leg when targets are upIn(w)); fixedIsA says whether
// it becomes childA (travel-order first half) or childB of an improved arc.
// Duplicate heads on either side (parallel arcs) are cross-relaxed
// blockwise. A leg still at +Inf (a shortcut no triangle has reached yet)
// yields an infinite candidate and relaxes nothing.
func (o *Overlay) mergeRelax(tHeads []roadnet.NodeID, tArcs []int32,
	lHeads []roadnet.NodeID, lArcs []int32,
	base float64, fixedLeg int32, fixedIsA bool) {
	i, j := 0, 0
	for i < len(tHeads) && j < len(lHeads) {
		switch {
		case tHeads[i] < lHeads[j]:
			i++
		case tHeads[i] > lHeads[j]:
			j++
		default:
			h := tHeads[i]
			i2 := i + 1
			for i2 < len(tHeads) && tHeads[i2] == h {
				i2++
			}
			j2 := j + 1
			for j2 < len(lHeads) && lHeads[j2] == h {
				j2++
			}
			for jj := j; jj < j2; jj++ {
				leg := lArcs[jj]
				cand := base + o.arcs[leg].cost
				if math.IsInf(cand, 1) {
					continue
				}
				for ii := i; ii < i2; ii++ {
					if a := &o.arcs[tArcs[ii]]; cand < a.cost {
						a.cost = cand
						if fixedIsA {
							a.childA, a.childB = fixedLeg, leg
						} else {
							a.childA, a.childB = leg, fixedLeg
						}
					}
				}
			}
			i, j = i2, j2
		}
	}
}

// updateIndex is what the arc-level pass needs beyond the upward CSR views:
// the downward adjacency, their inverse. Per node x it lists the arcs x→v
// with rank(v) < rank(x) (out*), per node w the arcs v→w with
// rank(v) < rank(w) (in*), both keyed and sorted by v, so joining out(x) with
// in(w) enumerates the lower triangles of an arc x→w. Pure topology: built
// once, on the first weight update, and shared by every generation like the
// CSR views themselves.
type updateIndex struct {
	once          sync.Once
	outOff, inOff []int32
	outTo, inTo   []roadnet.NodeID
	outArc, inArc []int32
}

// updateIndex returns the shared update index, building it on first use.
// Safe for concurrent callers: the CSR arrays it derives from are frozen.
func (o *Overlay) updateIndex() *updateIndex {
	x := o.upd
	x.once.Do(func() {
		x.outOff, x.outTo, x.outArc = invertCSR(o.bwdOff, o.bwdTo, o.bwdArc)
		x.inOff, x.inTo, x.inArc = invertCSR(o.fwdOff, o.fwdTo, o.fwdArc)
	})
	return x
}

// invertCSR regroups a CSR view's (node v, head h, arc) entries by h, keyed
// by v. Filling in ascending v leaves every segment of the result sorted by
// key, parallel arcs adjacent — the layout mergeJoin needs.
func invertCSR(off []int32, to []roadnet.NodeID, arcs []int32) (iOff []int32, iTo []roadnet.NodeID, iArc []int32) {
	n := len(off) - 1
	iOff = make([]int32, n+1)
	for _, h := range to {
		iOff[h+1]++
	}
	for v := 0; v < n; v++ {
		iOff[v+1] += iOff[v]
	}
	iTo = make([]roadnet.NodeID, len(to))
	iArc = make([]int32, len(to))
	next := append([]int32(nil), iOff[:n]...)
	for v := 0; v < n; v++ {
		for j := off[v]; j < off[v+1]; j++ {
			k := next[to[j]]
			iTo[k], iArc[k] = roadnet.NodeID(v), arcs[j]
			next[to[j]]++
		}
	}
	return iOff, iTo, iArc
}

func (x *updateIndex) downOut(v int32) ([]roadnet.NodeID, []int32) {
	lo, hi := x.outOff[v], x.outOff[v+1]
	return x.outTo[lo:hi], x.outArc[lo:hi]
}

func (x *updateIndex) downIn(v int32) ([]roadnet.NodeID, []int32) {
	lo, hi := x.inOff[v], x.inOff[v+1]
	return x.inTo[lo:hi], x.inArc[lo:hi]
}

// ownerRank is the worklist key of arena arc ai: the rank of its
// lower-ranked endpoint, below which all legs of its lower triangles lie.
func (o *Overlay) ownerRank(ai int32) float64 {
	a := &o.arcs[ai]
	return float64(min(o.rank[a.from], o.rank[a.to]))
}

// rederive drains the worklist in ascending owner rank on o, a fresh clone of
// old whose base costs already reflect the new graph, and returns the arcs it
// re-derived. A popped arc is recomputed as the minimum of its base cost and
// its lower triangles, whose legs are final: anything that could still move
// them ranks lower and was popped before. If its cost moved, every triangle
// it is a leg of is compared old against new, and the triangle's target is
// queued when the new leg sum beats the target's cost (it improves) or the
// old leg sum equalled it (it may have lost its support). The other leg may
// itself still be queued, under the same owner; then it re-examines the
// triangle with both legs final when its turn comes. An arc never queued
// keeps cost and children, which is exact: none of its triangles got cheaper
// than it, and the one its children name kept its sum.
func (o *Overlay) rederive(old *Overlay, work *pqueue.IndexedHeap) ([]int32, error) {
	x := o.updateIndex()
	var (
		rederived []int32
		ai        int32
		a         *arc
	)
	relax := func(legA, legB int32) {
		if c := o.arcs[legA].cost + o.arcs[legB].cost; c < a.cost {
			a.cost, a.childA, a.childB = c, legA, legB
		}
	}
	visit := func(target, leg int32) {
		newSum := a.cost + o.arcs[leg].cost
		oldSum := old.arcs[ai].cost + old.arcs[leg].cost
		if tc := o.arcs[target].cost; newSum < tc || (oldSum == tc && newSum > tc) {
			work.Push(target, o.ownerRank(target))
		}
	}
	for !work.Empty() {
		ai = work.Pop().Value
		a = &o.arcs[ai]
		rederived = append(rederived, ai)
		a.cost, a.childA, a.childB = math.Inf(1), -1, -1
		if int(ai) < o.nOriginal {
			a.cost = o.baseCost[ai]
		}
		outTo, outArc := x.downOut(a.from)
		inTo, inArc := x.downIn(a.to)
		mergeJoin(outTo, outArc, inTo, inArc, relax)
		if math.IsInf(a.cost, 1) {
			return nil, fmt.Errorf("ch: customize: shortcut %d (%d→%d) has no supporting triangle", ai, a.from, a.to)
		}
		// The arc's one CSR cost slot sits in its owner's (short) segment.
		inLeg := o.rank[a.to] < o.rank[a.from]
		if inLeg {
			lo := o.bwdOff[a.to]
			o.bwdCost[int(lo)+slices.Index(o.bwdArc[lo:o.bwdOff[a.to+1]], ai)] = a.cost
		} else {
			lo := o.fwdOff[a.from]
			o.fwdCost[int(lo)+slices.Index(o.fwdArc[lo:o.fwdOff[a.from+1]], ai)] = a.cost
		}
		if a.cost == old.arcs[ai].cost {
			continue
		}
		if inLeg {
			// An in-leg x→v of v = a.to: with each out-leg v→w it spans the
			// target x→w, found among x's out-arcs above or below x.
			legTo, legArc := o.upOut(a.to)
			tTo, tArc := o.upOut(a.from)
			mergeJoin(tTo, tArc, legTo, legArc, visit)
			tTo, tArc = x.downOut(a.from)
			mergeJoin(tTo, tArc, legTo, legArc, visit)
		} else {
			// An out-leg v→w of v = a.from: with each in-leg x→v it spans the
			// target x→w, found among w's in-arcs above or below w.
			legTo, legArc := o.upIn(a.from)
			tTo, tArc := o.upIn(a.to)
			mergeJoin(tTo, tArc, legTo, legArc, visit)
			tTo, tArc = x.downIn(a.to)
			mergeJoin(tTo, tArc, legTo, legArc, visit)
		}
	}
	return rederived, nil
}

// mergeJoin calls fn(aArcs[i], bArcs[j]) for every pair of entries of two
// key-sorted segments with equal keys; duplicate keys on either side
// (parallel arcs) pair up blockwise.
func mergeJoin(aKeys []roadnet.NodeID, aArcs []int32, bKeys []roadnet.NodeID, bArcs []int32, fn func(a, b int32)) {
	i, j := 0, 0
	for i < len(aKeys) && j < len(bKeys) {
		switch {
		case aKeys[i] < bKeys[j]:
			i++
		case aKeys[i] > bKeys[j]:
			j++
		default:
			key, j0 := aKeys[i], j
			for ; i < len(aKeys) && aKeys[i] == key; i++ {
				for j = j0; j < len(bKeys) && bKeys[j] == key; j++ {
					fn(aArcs[i], bArcs[j])
				}
			}
		}
	}
}
