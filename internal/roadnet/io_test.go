package roadnet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	g := buildTriangle(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	assertGraphsEqual(t, g, got)
}

func assertGraphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumArcs() != want.NumArcs() {
		t.Fatalf("size %d/%d, want %d/%d", got.NumNodes(), got.NumArcs(), want.NumNodes(), want.NumArcs())
	}
	for _, n := range want.Nodes() {
		gn := got.Node(n.ID)
		if gn.X != n.X || gn.Y != n.Y || gn.Weight != n.Weight {
			t.Errorf("node %d = %+v, want %+v", n.ID, gn, n)
		}
		wantArcs := want.Arcs(n.ID)
		gotArcs := got.Arcs(n.ID)
		if len(wantArcs) != len(gotArcs) {
			t.Errorf("node %d arc count %d, want %d", n.ID, len(gotArcs), len(wantArcs))
			continue
		}
		for i := range wantArcs {
			if wantArcs[i] != gotArcs[i] {
				t.Errorf("node %d arc %d = %+v, want %+v", n.ID, i, gotArcs[i], wantArcs[i])
			}
		}
	}
}

func TestReadTextFormats(t *testing.T) {
	input := `
# a comment line

n 0 0.0 0.0 2.0
n 1 1.0 0.0
b 0 1 3.5
`
	g, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g.NumNodes() != 2 || g.NumArcs() != 2 {
		t.Fatalf("parsed %d nodes %d arcs, want 2/2", g.NumNodes(), g.NumArcs())
	}
	if g.Node(0).Weight != 2 {
		t.Errorf("node 0 weight = %v, want 2", g.Node(0).Weight)
	}
	if g.Node(1).Weight != 1 {
		t.Errorf("node 1 default weight = %v, want 1", g.Node(1).Weight)
	}
	if cost, ok := g.ArcCost(1, 0); !ok || cost != 3.5 {
		t.Errorf("bidirectional edge missing reverse direction (cost=%v ok=%v)", cost, ok)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"non-dense node id":  "n 5 0 0\n",
		"short node line":    "n 0 0\n",
		"bad x":              "n 0 x 0\n",
		"edge unknown node":  "n 0 0 0\ne 0 7 1\n",
		"short edge line":    "n 0 0 0\nn 1 1 1\ne 0 1\n",
		"bad cost":           "n 0 0 0\nn 1 1 1\ne 0 1 abc\n",
		"negative cost":      "n 0 0 0\nn 1 1 1\ne 0 1 -2\n",
		"unknown record":     "x 1 2 3\n",
		"bad node id number": "n zero 0 0\n",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadText(strings.NewReader(input)); err == nil {
				t.Errorf("ReadText accepted %q, want error", input)
			}
		})
	}
}

func TestTextRoundTripLargerGraph(t *testing.T) {
	g := scatterGraph(100)
	// add a ring of edges
	mutable := g.Clone()
	for i := 0; i < 100; i++ {
		mutable.MustAddBidirectionalEdge(NodeID(i), NodeID((i+1)%100), float64(i%7+1))
	}
	mutable.Freeze()
	var buf bytes.Buffer
	if err := WriteText(&buf, mutable); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	assertGraphsEqual(t, mutable, got)
}

// TestReadTextRefusesNonFinite: the file comes from outside the program, and
// a NaN or infinite coordinate, weight or cost would reach the map's bounds
// and everything divided by them. Each is refused with the number of the
// line that carries it, as is an edge endpoint too large for a NodeID.
func TestReadTextRefusesNonFinite(t *testing.T) {
	cases := map[string]string{
		"NaN x":           "n 0 0 0\nn 1 NaN 0\n",
		"+Inf y":          "n 0 0 0\nn 1 1 +Inf\n",
		"-Inf x":          "n 0 0 0\nn 1 -Inf 1\n",
		"NaN weight":      "n 0 0 0\nn 1 1 1 nan\n",
		"Inf cost":        "n 0 0 0\nn 1 1 1\ne 0 1 Inf\n",
		"NaN cost (b)":    "n 0 0 0\nn 1 1 1\nb 0 1 NaN\n",
		"wrapping from":   "n 0 0 0\nn 1 1 1\ne 4294967296 1 1\n",
		"wrapping to (b)": "n 0 0 0\nn 1 1 1\nb 0 4294967297 1\n",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			g, err := ReadText(strings.NewReader(input))
			if err == nil {
				minX, minY, maxX, maxY := g.Bounds()
				t.Fatalf("ReadText accepted %q (bounds %v %v %v %v), want error", input, minX, minY, maxX, maxY)
			}
			lines := strings.Count(input, "\n")
			if want := fmt.Sprintf("line %d:", lines); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
		})
	}
}

// FuzzReadText: the reader never panics on arbitrary input, and a graph it
// accepts survives WriteText → ReadText with the same nodes (coordinates and
// weights) and arcs.
func FuzzReadText(f *testing.F) {
	f.Add("n 0 0 0\nn 1 1 0\nn 2 0 1\nb 0 1 1\nb 1 2 1.5\ne 2 0 2\n")
	f.Add("# c\nn 0 0.5 -1e300 2\nn 1 1e-300 0\nb 0 1 3.5\ne 1 1 0\n")
	f.Add("n 0 NaN 0\n")
	f.Add("n 0 0 0\ne 0 4294967296 1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, g); err != nil {
			t.Fatal(err)
		}
		again, err := ReadText(&out)
		if err != nil {
			t.Fatalf("re-reading the written graph: %v\n%s", err, out.String())
		}
		assertGraphsEqual(t, g, again)
	})
}
