package server

import (
	"fmt"
	"sort"
	"sync"

	"opaque/internal/ch"
	"opaque/internal/costmodel"
	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// This file is the server side of precustomized weight-profile serving. A
// profile (costmodel.WeightProfile) is a deterministic reweighting of the
// startup metric — "the morning peak", "night free-flow" — and a profile
// query asks to be answered under that regime instead of the live metric.
// The server precustomizes one evaluation state (evalState) per profile: an
// immutable accessor over the profile graph and (when the server serves
// through an overlay) a customized overlay weight layer sharing the base
// overlay's frozen topology (ch.ProfileSet) with the engine bound to it.
// Profile queries route onto that state exactly like live queries do onto
// the live epoch, with zero customization work on the query path, and —
// because the state never swaps — a heavy live update stream never touches
// them.
//
// Profiles deliberately bind to the *startup* graph, not the live snapshot:
// they answer what a trip usually costs under a recurring regime, which the
// live traffic of the moment does not change. This is also what makes the
// layers precustomizable at all — a layer chasing the live metric would
// re-customize on every update, which is exactly the work profile serving
// exists to avoid.

// profileCache resolves profile names to their precustomized states,
// building on demand and bounded by the layer LRU.
type profileCache struct {
	s    *Server
	defs map[string]costmodel.WeightProfile
	// layers is the LRU of customized overlay weight layers; nil when the
	// server serves without an overlay (states are then flat-only and cheap
	// enough to keep unbounded — one accessor and processor each).
	layers *ch.ProfileSet

	mu     sync.Mutex
	states map[string]*evalState
}

// initProfiles validates the profile configuration and builds the cache
// (and, with PrewarmProfiles, every layer). Called from New.
func (s *Server) initProfiles() error {
	if len(s.cfg.Profiles) == 0 {
		return nil
	}
	if s.mutable == nil {
		return fmt.Errorf("server: weight profiles require the in-memory backend (the paged simulation serves exactly one page layout)")
	}
	defs := make(map[string]costmodel.WeightProfile, len(s.cfg.Profiles))
	for _, p := range s.cfg.Profiles {
		if p.Name == "" {
			return fmt.Errorf("server: weight profile with empty name")
		}
		if _, dup := defs[p.Name]; dup {
			return fmt.Errorf("server: duplicate weight profile %q", p.Name)
		}
		defs[p.Name] = p
	}
	pc := &profileCache{s: s, defs: defs, states: make(map[string]*evalState)}
	if st := s.live.Load(); st.overlay != nil {
		capacity := s.cfg.ProfileCapacity
		if capacity <= 0 {
			capacity = len(defs)
		}
		layers := ch.NewProfileSet(capacity)
		// Layer evictions drop the derived state too. The hook runs under
		// the layer set's lock, which is only ever taken while pc.mu is
		// held (state() is the sole caller), so the plain delete is safe.
		layers.SetOnEvict(func(name string) { delete(pc.states, name) })
		pc.layers = layers
	}
	s.profiles = pc
	if s.cfg.PrewarmProfiles {
		names := make([]string, 0, len(defs))
		for name := range defs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if _, err := pc.state(name); err != nil {
				return fmt.Errorf("server: prewarming profile %q: %w", name, err)
			}
		}
	}
	return nil
}

// state returns the evaluation state for the named profile, counting
// profile_layer_hits/misses. Builds serialise behind the cache lock — with
// PrewarmProfiles (the intended deployment) on-demand builds only happen
// after LRU evictions.
func (pc *profileCache) state(name string) (*evalState, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if st, ok := pc.states[name]; ok {
		if pc.layers != nil {
			pc.layers.Layer(name) // LRU touch + layer hit accounting
		}
		pc.s.mProfileHits.Add(1)
		return st, nil
	}
	def, ok := pc.defs[name]
	if !ok {
		known := make([]string, 0, len(pc.defs))
		for n := range pc.defs {
			known = append(known, n)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("unknown weight profile %q (configured: %v)", name, known)
	}
	pc.s.mProfileMiss.Add(1)
	// Profiles reweight the startup graph — not the live snapshot — so the
	// layer stays valid for the server's lifetime (see the file comment).
	pg, err := def.Apply(pc.s.graph)
	if err != nil {
		return nil, fmt.Errorf("applying weight profile %q: %w", name, err)
	}
	var layer *ch.Overlay
	if pc.layers != nil {
		// Any generation of the live overlay shares the frozen half the layer
		// is customized on; taking the current one pins no retired weights.
		layer, err = pc.layers.Install(name, pc.s.live.Load().overlay, pg)
		if err != nil {
			return nil, fmt.Errorf("customizing layer for weight profile %q: %w", name, err)
		}
	}
	// The profile accessor is a plain immutable MemoryGraph: its generation
	// is constant 0, the engine binds to 0, and the state can therefore never
	// fail the engine's staleness check. No tree cache is attached — the
	// server's cache keys trees by (source, generation) and every profile
	// accessor reports generation 0, so sharing it would mix trees across
	// metrics.
	st := pc.s.newEvalState(storage.NewMemoryGraph(pg), layer, nil)
	pc.states[name] = st
	return st, nil
}

// layerCount returns how many profile states are currently resident.
func (pc *profileCache) layerCount() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.states)
}

// ProfileLayerStats returns the profile layer cache counters (hits, misses,
// evictions, resident layers), or zeroes when the server has no profiles or
// serves them without an overlay.
func (s *Server) ProfileLayerStats() ch.ProfileSetStats {
	if s.profiles == nil {
		return ch.ProfileSetStats{}
	}
	if s.profiles.layers == nil {
		s.profiles.mu.Lock()
		defer s.profiles.mu.Unlock()
		return ch.ProfileSetStats{Layers: len(s.profiles.states)}
	}
	return s.profiles.layers.Stats()
}

// ProfileGraph returns the reweighted graph the named profile is served
// from, building the profile state if needed. Experiments use it as the
// reference metric for verifying profile query answers.
func (s *Server) ProfileGraph(name string) (*roadnet.Graph, error) {
	if s.profiles == nil {
		return nil, fmt.Errorf("server: no profiles configured")
	}
	st, err := s.profiles.state(name)
	if err != nil {
		return nil, err
	}
	return st.acc.Graph(), nil
}
