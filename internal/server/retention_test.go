package server

import (
	"runtime"
	"testing"
	"weak"

	"opaque/internal/ch"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

// startupOverlayServer builds a hybrid server over a fresh customizable
// overlay and hands back only a weak pointer to that overlay, so the test
// itself keeps nothing reachable.
func startupOverlayServer(t *testing.T, g *roadnet.Graph) (*Server, weak.Pointer[ch.Overlay]) {
	t.Helper()
	o, err := ch.BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.CHOverlay = o
	return MustNew(g, cfg), weak.Make(o)
}

// collected runs one collection and reports whether p's target is gone.
// One, not several: a used sync.Pool stays registered with the runtime until
// two collections pass, so an object a pool field pins would survive the
// first — and on a server that allocates slowly, collections are seconds
// apart while weight layers retire several times a second.
func collected(p weak.Pointer[ch.Overlay]) bool {
	runtime.GC()
	return p.Value() == nil
}

// TestStartupOverlayReleasedAfterRecustomize: New consumes Config.CHOverlay,
// so the installed evaluation state is the overlay's only owner and a
// re-customization that replaces it leaves the startup weight layer
// collectable. The test serves a point and a wide query through the startup
// overlay, applies one weight change, re-customizes and expects the startup
// overlay — live until then — to be collectable by the first collection after
// the fresh one is installed, with the server still answering through the
// overlay.
func TestStartupOverlayReleasedAfterRecustomize(t *testing.T) {
	g := updateTestGraph(t, 120, 903)
	s, startup := startupOverlayServer(t, g)

	point := protocol.ServerQuery{Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{2}}
	wide := protocol.ServerQuery{Sources: []roadnet.NodeID{1, 3, 5}, Dests: []roadnet.NodeID{2, 4, 6}}
	serve := func() {
		for _, q := range []protocol.ServerQuery{point, wide} {
			reply, err := s.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			checkReplyMatchesGraph(t, s.Graph(), reply)
		}
	}
	if collected(startup) {
		t.Fatal("the startup overlay was collected while it was still installed")
	}
	// Serve after that collection, so nothing the queries touched has had a
	// collection to age through before the check below.
	serve()
	if _, err := s.applyWeights([]roadnet.ArcWeightChange{doubleOneArc(t, g)}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecustomizeNow(); err != nil {
		t.Fatal(err)
	}
	if !collected(startup) {
		t.Fatal("the startup overlay is still reachable after re-customization installed a fresh one")
	}
	serve()
	m := s.Metrics()
	if mtm := m.Counter("mtm_queries"); mtm != 4 {
		t.Errorf("mtm_queries = %d; want every query served by an overlay", mtm)
	}
}
