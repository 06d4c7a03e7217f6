package roadnet

import (
	"cmp"
	"math"
	"slices"
)

// gridIndex is a uniform spatial grid over the graph's bounding box used for
// nearest-node and range queries. It is built once at Freeze time.
type gridIndex struct {
	minX, minY   float64
	cellW, cellH float64
	cols, rows   int
	cells        [][]NodeID
}

// buildGridIndex builds a grid whose cell count is roughly the node count so
// that the expected occupancy per cell is O(1).
func buildGridIndex(g *Graph) *gridIndex {
	n := g.NumNodes()
	if n == 0 {
		return &gridIndex{cols: 1, rows: 1, cellW: 1, cellH: 1, cells: make([][]NodeID, 1)}
	}
	minX, minY, maxX, maxY := g.Bounds()
	w := maxX - minX
	h := maxY - minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	idx := &gridIndex{
		minX:  minX,
		minY:  minY,
		cols:  side,
		rows:  side,
		cellW: w / float64(side),
		cellH: h / float64(side),
	}
	idx.cells = make([][]NodeID, side*side)
	for _, node := range g.Nodes() {
		c := idx.cellOf(node.X, node.Y)
		idx.cells[c] = append(idx.cells[c], node.ID)
	}
	return idx
}

func (idx *gridIndex) cellOf(x, y float64) int {
	cx := int((x - idx.minX) / idx.cellW)
	cy := int((y - idx.minY) / idx.cellH)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cx >= idx.cols {
		cx = idx.cols - 1
	}
	if cy >= idx.rows {
		cy = idx.rows - 1
	}
	return cy*idx.cols + cx
}

// NearestNode returns the node closest (in Euclidean distance) to (x, y), or
// InvalidNode for an empty graph. The graph must be frozen.
func (g *Graph) NearestNode(x, y float64) NodeID {
	if g.NumNodes() == 0 {
		return InvalidNode
	}
	if !g.frozen {
		// Fallback linear scan on mutable graphs; rare and small.
		return g.linearNearest(x, y)
	}
	idx := g.grid
	cx := int((x - idx.minX) / idx.cellW)
	cy := int((y - idx.minY) / idx.cellH)
	best := InvalidNode
	bestD := math.Inf(1)
	// Expand rings of cells outward until a hit is found and the ring
	// distance exceeds the best distance (standard grid NN search).
	for ring := 0; ring < idx.cols+idx.rows; ring++ {
		hitPossible := false
		for dy := -ring; dy <= ring; dy++ {
			for dx := -ring; dx <= ring; dx++ {
				if abs(dx) != ring && abs(dy) != ring {
					continue // only the ring boundary
				}
				ccx, ccy := cx+dx, cy+dy
				if ccx < 0 || ccy < 0 || ccx >= idx.cols || ccy >= idx.rows {
					continue
				}
				hitPossible = true
				for _, id := range idx.cells[ccy*idx.cols+ccx] {
					n := g.nodes[id]
					d := (n.X-x)*(n.X-x) + (n.Y-y)*(n.Y-y)
					if d < bestD {
						bestD = d
						best = id
					}
				}
			}
		}
		if best != InvalidNode {
			// The nearest node in further rings is at least (ring-1) cells
			// away; stop once that lower bound exceeds the best found.
			minCell := math.Min(idx.cellW, idx.cellH)
			lower := float64(ring-1) * minCell
			if lower > 0 && lower*lower > bestD {
				break
			}
		}
		if !hitPossible && best != InvalidNode {
			break
		}
	}
	if best == InvalidNode {
		return g.linearNearest(x, y)
	}
	return best
}

func (g *Graph) linearNearest(x, y float64) NodeID {
	best := InvalidNode
	bestD := math.Inf(1)
	for _, n := range g.nodes {
		d := (n.X-x)*(n.X-x) + (n.Y-y)*(n.Y-y)
		if d < bestD {
			bestD = d
			best = n.ID
		}
	}
	return best
}

// NodesWithin returns the IDs of all nodes whose Euclidean distance from
// (x, y) is at most radius, sorted by increasing distance (ties by ID). The
// graph must be frozen for efficient lookup; on mutable graphs it scans
// linearly.
func (g *Graph) NodesWithin(x, y, radius float64) []NodeID {
	type cand struct {
		id NodeID
		d  float64
	}
	ids := g.NodesInBand(nil, x, y, 0, radius)
	out := make([]cand, len(ids))
	for i, id := range ids {
		n := &g.nodes[id]
		out[i] = cand{id, math.Hypot(n.X-x, n.Y-y)}
	}
	slices.SortFunc(out, func(a, b cand) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, c := range out {
		ids[i] = c.id
	}
	return ids
}

// NodesInBand appends to dst the IDs of all nodes whose Euclidean distance
// from (x, y) lies in [inner, outer] and returns the extended slice. The
// order is the grid walk's — deterministic for a given graph, but not by
// distance: the ring-band fake-endpoint selector samples from the band
// uniformly, so it pays for the enumeration alone, O(nodes in the band's
// bounding box), and reuses one buffer across calls. NodesWithin is the
// distance-ordered variant. On a mutable graph it scans linearly.
func (g *Graph) NodesInBand(dst []NodeID, x, y, inner, outer float64) []NodeID {
	if !g.frozen {
		for i := range g.nodes {
			n := &g.nodes[i]
			if d := math.Hypot(n.X-x, n.Y-y); d >= inner && d <= outer {
				dst = append(dst, n.ID)
			}
		}
		return dst
	}
	idx := g.grid
	x0 := max(int((x-outer-idx.minX)/idx.cellW), 0)
	x1 := min(int((x+outer-idx.minX)/idx.cellW), idx.cols-1)
	y0 := max(int((y-outer-idx.minY)/idx.cellH), 0)
	y1 := min(int((y+outer-idx.minY)/idx.cellH), idx.rows-1)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range idx.cells[cy*idx.cols+cx] {
				n := &g.nodes[id]
				if d := math.Hypot(n.X-x, n.Y-y); d >= inner && d <= outer {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
