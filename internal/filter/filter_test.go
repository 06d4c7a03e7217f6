package filter

import (
	"errors"
	"slices"
	"testing"

	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
)

// lineGraph is the path 0 — 1 — … — n-1 with unit-cost roads both ways.
func lineGraph(t testing.TB, n int) *roadnet.Graph {
	t.Helper()
	g := roadnet.NewGraph(n, 2*n)
	for i := 0; i < n; i++ {
		g.AddNode(float64(i), 0)
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddBidirectionalEdge(roadnet.NodeID(i), roadnet.NodeID(i+1), 1)
	}
	g.Freeze()
	return g
}

// walk is the node sequence s, s±1, …, t of lineGraph.
func walk(s, t roadnet.NodeID) []roadnet.NodeID {
	step := roadnet.NodeID(1)
	if t < s {
		step = -1
	}
	nodes := []roadnet.NodeID{s}
	for v := s; v != t; {
		v += step
		nodes = append(nodes, v)
	}
	return nodes
}

// table is the source-major candidate table of Q(sources, dests) on
// lineGraph, every cell found along its walk.
func table(sources, dests []roadnet.NodeID) []protocol.CandidatePath {
	var paths []protocol.CandidatePath
	for _, s := range sources {
		for _, d := range dests {
			nodes := walk(s, d)
			paths = append(paths, protocol.CandidatePath{Source: s, Dest: d, Nodes: nodes, Cost: float64(len(nodes) - 1), Found: true})
		}
	}
	return paths
}

// held is reply as the networked obfuscator receives it: in its wire form.
func held(t testing.TB, reply protocol.ServerReply) protocol.ServerReply {
	t.Helper()
	payload, err := protocol.AppendMessage(nil, reply, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := protocol.ReadHeldReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	return h.Reply()
}

// forms runs check on paths as a decoded reply and as a held one.
func forms(t *testing.T, paths []protocol.CandidatePath, check func(t *testing.T, reply protocol.ServerReply)) {
	t.Helper()
	reply := protocol.ServerReply{QueryID: 1, Paths: paths}
	t.Run("decoded", func(t *testing.T) { check(t, reply) })
	t.Run("held", func(t *testing.T) { check(t, held(t, reply)) })
}

// slots lists the positions of a batch of n requests.
func slots(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// extract answers reqs, a batch q covers, out of reply.
func extract(g *roadnet.Graph, q obfuscate.ObfuscatedQuery, reply protocol.ServerReply, reqs ...obfuscate.Request) ([]search.Path, error) {
	paths := make([]search.Path, len(reqs))
	err := Extract(g, q, reply, reqs, slots(len(reqs)), paths)
	return paths, err
}

func TestExtract(t *testing.T) {
	g := lineGraph(t, 5)
	q := obfuscate.ObfuscatedQuery{Sources: []roadnet.NodeID{0, 1}, Dests: []roadnet.NodeID{3, 4}}
	alice := obfuscate.Request{User: "alice", Source: 0, Dest: 4}
	bob := obfuscate.Request{User: "bob", Source: 1, Dest: 3}
	forms(t, table(q.Sources, q.Dests), func(t *testing.T, reply protocol.ServerReply) {
		paths, err := extract(g, q, reply, alice, bob)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(paths[0].Nodes, walk(0, 4)) || paths[0].Cost != 4 {
			t.Errorf("alice's path = %+v", paths[0])
		}
		if !slices.Equal(paths[1].Nodes, walk(1, 3)) || paths[1].Cost != 2 {
			t.Errorf("bob's path = %+v", paths[1])
		}
	})
}

// TestExtractMissingPair: a table that holds no cell for a request's pair
// does not answer the query, and the request fails instead of reading as
// "no route".
func TestExtractMissingPair(t *testing.T) {
	g := lineGraph(t, 5)
	q := obfuscate.ObfuscatedQuery{Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{4}}
	alice := obfuscate.Request{User: "alice", Source: 0, Dest: 4}
	forms(t, table(q.Sources, []roadnet.NodeID{3}), func(t *testing.T, reply protocol.ServerReply) {
		if _, err := extract(g, q, reply, alice); !errors.Is(err, ErrBadReply) {
			t.Errorf("reply without the pair's cell: err = %v, want ErrBadReply", err)
		}
	})
}

// TestExtractEmptyReply: a reply with no table at all answers nothing, and a
// one-request query is answered like any other.
func TestExtractEmptyReply(t *testing.T) {
	g := lineGraph(t, 5)
	q := obfuscate.ObfuscatedQuery{Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{3}}
	alice := obfuscate.Request{User: "alice", Source: 0, Dest: 3}
	if _, err := extract(g, q, protocol.ServerReply{}, alice); !errors.Is(err, ErrBadReply) {
		t.Errorf("empty reply: err = %v, want ErrBadReply", err)
	}
	forms(t, table(q.Sources, q.Dests), func(t *testing.T, reply protocol.ServerReply) {
		paths, err := extract(g, q, reply, alice)
		if err != nil || !slices.Equal(paths[0].Nodes, walk(0, 3)) || paths[0].Cost != 3 {
			t.Errorf("one request: path %+v, err %v", paths[0], err)
		}
	})
}

func TestExtractUnreachableDestination(t *testing.T) {
	g := lineGraph(t, 5)
	q := obfuscate.ObfuscatedQuery{Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{4}}
	alice := obfuscate.Request{User: "alice", Source: 0, Dest: 4}
	unreachable := []protocol.CandidatePath{{Source: 0, Dest: 4}}
	forms(t, unreachable, func(t *testing.T, reply protocol.ServerReply) {
		paths, err := extract(g, q, reply, alice)
		if err != nil {
			t.Fatal(err)
		}
		if !paths[0].Empty() {
			t.Errorf("unreachable destination answered with %+v", paths[0])
		}
	})
}

func TestExtractVerificationRejectsFabricatedPath(t *testing.T) {
	g := lineGraph(t, 5)
	q := obfuscate.ObfuscatedQuery{Sources: []roadnet.NodeID{0, 1}, Dests: []roadnet.NodeID{3, 4}}
	alice := obfuscate.Request{User: "alice", Source: 0, Dest: 4}
	bent := map[string]func(paths []protocol.CandidatePath){
		// A road that does not exist: 0 → 4 directly.
		"step off the map":   func(paths []protocol.CandidatePath) { paths[1].Nodes = []roadnet.NodeID{0, 4} },
		"first node dropped": func(paths []protocol.CandidatePath) { paths[1].Nodes = paths[1].Nodes[1:] },
		"last node dropped": func(paths []protocol.CandidatePath) {
			paths[1].Nodes = paths[1].Nodes[:len(paths[1].Nodes)-1]
		},
		"found without a path": func(paths []protocol.CandidatePath) { paths[1].Nodes = nil },
		"unknown node":         func(paths []protocol.CandidatePath) { paths[1].Nodes = []roadnet.NodeID{0, 9, 4} },
		// The same shape, answering Q({2, 1}, {3, 4}).
		"another query's table": func(paths []protocol.CandidatePath) { copy(paths, table([]roadnet.NodeID{2, 1}, q.Dests)) },
		// An unreachable cell has no path to check; its endpoints still are.
		"another query's unreachable cell": func(paths []protocol.CandidatePath) {
			copy(paths, table([]roadnet.NodeID{2, 1}, q.Dests))
			paths[1] = protocol.CandidatePath{Source: paths[1].Source, Dest: paths[1].Dest}
		},
	}
	for name, bend := range bent {
		t.Run(name, func(t *testing.T) {
			paths := table(q.Sources, q.Dests)
			bend(paths)
			forms(t, paths, func(t *testing.T, reply protocol.ServerReply) {
				if _, err := extract(g, q, reply, alice); !errors.Is(err, ErrBadReply) {
					t.Errorf("err = %v, want ErrBadReply", err)
				}
			})
		})
	}
	// Too small, and too large although alice's cell is where she looks
	// for it: the table does not answer Q(S, T).
	for name, dests := range map[string][]roadnet.NodeID{"a column short": q.Dests[1:], "a column extra": {3, 4, 2}} {
		t.Run(name, func(t *testing.T) {
			forms(t, table(q.Sources, dests), func(t *testing.T, reply protocol.ServerReply) {
				if _, err := extract(g, q, reply, alice); !errors.Is(err, ErrBadReply) {
					t.Errorf("err = %v, want ErrBadReply", err)
				}
			})
		})
	}
	// A request the query does not cover is the caller's mistake, not the
	// reply's.
	stray := obfuscate.Request{User: "carol", Source: 2, Dest: 4}
	if _, err := extract(g, q, protocol.ServerReply{Paths: table(q.Sources, q.Dests)}, stray); err == nil || errors.Is(err, ErrBadReply) {
		t.Errorf("uncovered request: err = %v, want an error other than ErrBadReply", err)
	}
}

func TestExtractVerificationAcceptsDifferentCosts(t *testing.T) {
	// The server's live-traffic costs may differ from the obfuscator map's
	// static costs; structural verification must still pass.
	g := lineGraph(t, 5)
	q := obfuscate.ObfuscatedQuery{Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{2}}
	alice := obfuscate.Request{User: "alice", Source: 0, Dest: 2}
	forms(t, []protocol.CandidatePath{{Source: 0, Dest: 2, Nodes: walk(0, 2), Cost: 97, Found: true}}, func(t *testing.T, reply protocol.ServerReply) {
		paths, err := extract(g, q, reply, alice)
		if err != nil {
			t.Fatalf("structurally valid path with different cost rejected: %v", err)
		}
		if paths[0].Cost != 97 {
			t.Errorf("path = %+v, want the server's cost 97", paths[0])
		}
	})
}

// TestExtractAllocs pins the filter's allocation contract: answering a
// query's requests out of a held reply allocates exactly one exactly-sized
// path per found request, whatever the table's size.
func TestExtractAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	g := lineGraph(t, 40)
	ids := func(from, n int) []roadnet.NodeID {
		out := make([]roadnet.NodeID, n)
		for i := range out {
			out[i] = roadnet.NodeID(from + i)
		}
		return out
	}
	for _, size := range []int{3, 16} {
		q := obfuscate.ObfuscatedQuery{Sources: ids(0, size), Dests: ids(20, size)}
		reply := held(t, protocol.ServerReply{Paths: table(q.Sources, q.Dests)})
		all := []obfuscate.Request{
			{User: "a", Source: q.Sources[0], Dest: q.Dests[size-1]},
			{User: "b", Source: q.Sources[size-1], Dest: q.Dests[0]},
			{User: "c", Source: q.Sources[1], Dest: q.Dests[1]},
		}
		for _, reqs := range [][]obfuscate.Request{all[:1], all} {
			paths, at := make([]search.Path, len(reqs)), slots(len(reqs))
			run := func() {
				if err := Extract(g, q, reply, reqs, at, paths); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the codec's scratch pool
			if allocs := testing.AllocsPerRun(50, run); allocs != float64(len(reqs)) {
				t.Errorf("%d×%d reply, %d requests: %v allocations, want %d (one per path)", size, size, len(reqs), allocs, len(reqs))
			}
			for k, p := range paths {
				if !slices.Equal(p.Nodes, walk(reqs[k].Source, reqs[k].Dest)) || cap(p.Nodes) != len(p.Nodes) {
					t.Errorf("%d×%d reply: request %d's path = %v (cap %d)", size, size, k, p.Nodes, cap(p.Nodes))
				}
			}
		}
	}
}
