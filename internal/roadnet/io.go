package roadnet

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text format is a line-oriented exchange format compatible in spirit
// with Tiger/Line derived node/edge lists commonly used by road-network
// papers:
//
//	# comment
//	n <id> <x> <y> [weight]
//	e <from> <to> <cost>
//	b <a> <b> <cost>        (bidirectional edge)
//
// Node lines must appear before any edge referencing them, and node IDs must
// be dense and in increasing order starting at 0 (the usual form of published
// road network files); the reader enforces this so that written files can be
// read back identically.

// WriteText serialises the graph in the text exchange format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# roadnet graph: %d nodes, %d arcs\n", g.NumNodes(), g.NumArcs()); err != nil {
		return err
	}
	for _, n := range g.Nodes() {
		if _, err := fmt.Fprintf(bw, "n %d %g %g %g\n", n.ID, n.X, n.Y, n.Weight); err != nil {
			return err
		}
	}
	for _, n := range g.Nodes() {
		for _, a := range g.Arcs(n.ID) {
			if _, err := fmt.Fprintf(bw, "e %d %d %g\n", n.ID, a.To, a.Cost); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadText parses a graph from the text exchange format and returns it
// frozen.
func ReadText(r io.Reader) (*Graph, error) {
	g := NewGraph(0, 0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "n":
			if len(fields) < 4 {
				return nil, fmt.Errorf("roadnet: line %d: node needs id x y", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad node id: %v", lineNo, err)
			}
			if id != g.NumNodes() {
				return nil, fmt.Errorf("roadnet: line %d: node ids must be dense and increasing (got %d, want %d)", lineNo, id, g.NumNodes())
			}
			x, err := parseFinite(fields[2])
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad x: %v", lineNo, err)
			}
			y, err := parseFinite(fields[3])
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad y: %v", lineNo, err)
			}
			w := 1.0
			if len(fields) >= 5 {
				w, err = parseFinite(fields[4])
				if err != nil {
					return nil, fmt.Errorf("roadnet: line %d: bad weight: %v", lineNo, err)
				}
			}
			g.AddWeightedNode(x, y, w)
		case "e", "b":
			if len(fields) < 4 {
				return nil, fmt.Errorf("roadnet: line %d: edge needs from to cost", lineNo)
			}
			from, err := parseID(fields[1])
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad from: %v", lineNo, err)
			}
			to, err := parseID(fields[2])
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad to: %v", lineNo, err)
			}
			cost, err := parseFinite(fields[3])
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: bad cost: %v", lineNo, err)
			}
			if fields[0] == "e" {
				if err := g.AddEdge(from, to, cost); err != nil {
					return nil, fmt.Errorf("roadnet: line %d: %v", lineNo, err)
				}
			} else {
				if err := g.AddBidirectionalEdge(from, to, cost); err != nil {
					return nil, fmt.Errorf("roadnet: line %d: %v", lineNo, err)
				}
			}
		default:
			return nil, fmt.Errorf("roadnet: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g.Freeze()
	return g, nil
}

// parseFinite parses a coordinate, node weight or arc cost. The file comes
// from outside the program, and ParseFloat also accepts NaN and ±Inf, which
// would reach every extent and page layout computed from the map.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite value %q", s)
	}
	return v, err
}

// parseID parses an edge endpoint as a NodeID, refusing ids a NodeID cannot
// hold instead of wrapping them onto another node.
func parseID(s string) (NodeID, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	return NodeID(v), err
}
