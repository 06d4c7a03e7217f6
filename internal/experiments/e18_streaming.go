package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"opaque/internal/costmodel"
	"opaque/internal/gen"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
	"opaque/internal/storage"
	"opaque/internal/traffic"
)

// E18Streaming measures the streaming traffic ingestion pipeline end to end:
// a sustained event stream over a hot arc pool is pushed through the
// coalescer into the serving stack while point queries — on the live metric
// and on a prewarmed time-of-day profile layer — hammer the server, at a
// sweep of target event rates. Per rate the table reports
//
//   - the achieved event throughput and how far coalescing collapsed the
//     stream (events per applied arc change);
//   - how the re-customization work scaled: applied batches and pipelined
//     refresh runs (folding means runs <= batches, and both grow with
//     batches, not raw events);
//   - the p99 latency of live-metric and profile-layer queries under churn;
//   - the longest contiguous stretch an applied batch waited to be published
//     — the visibility lag, during which queries are answered on the
//     previous epoch — bounded near one incremental re-customization latency
//     because each refresh starts from the freshest snapshot.
//
// Every applied batch is verified on the coalescer goroutine, before the next
// batch can land: its changes must be in the post-batch snapshot, and one
// sampled pair is served and checked against reference Dijkstra on the graph
// the reply's ContentSum names (the batch's own or an earlier one still
// published), so a broken coalesce/apply/publish path cannot survive into the
// table. Profile-layer misses are asserted to stay flat across the
// whole run — churn must never touch the precustomized layers.
type E18Streaming struct{}

// ID implements Runner.
func (E18Streaming) ID() string { return "E18" }

// Description implements Runner.
func (E18Streaming) Description() string {
	return "Streaming ingestion: coalesced batches + pipelined re-customization under query load"
}

// Run implements Runner.
func (E18Streaming) Run(scale Scale) ([]*Table, error) {
	nodes := networkNodes(scale, 6000, 50000)
	rates := []int{100, 400, 1600}
	perRate := 1 * time.Second
	if scale == Small {
		rates = []int{200, 800}
		perRate = 300 * time.Millisecond
	}

	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.TigerLike
	netCfg.Nodes = nodes
	netCfg.Seed = 1818
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, err
	}
	cfg := server.DefaultConfig()
	cfg.Strategy = server.StrategyHybrid
	cfg.BuildCH = true
	cfg.PartitionCells = 32
	cfg.Profiles = costmodel.TimeOfDayProfiles()
	cfg.PrewarmProfiles = true
	srv, err := server.New(g, cfg)
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:    "E18",
		Title: "Streaming ingestion under query load (" + itoa(nodes) + " nodes, hot pool, prewarmed profiles)",
		Columns: []string{"target ev/s", "achieved ev/s", "events", "batches", "coalesce ratio",
			"refresh runs", "p99 live ms", "p99 profile ms", "max visibility lag ms"},
	}

	pool, orig := hotArcPool(g, 64)
	rng := rand.New(rand.NewSource(1819))
	for _, rate := range rates {
		row, err := runStreamingRate(srv, g, pool, orig, rng, rate, perRate)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(rate, row.achieved, row.events, row.batches, row.ratio,
			row.refreshRuns, row.p99Live, row.p99Profile, row.maxLagMS)
	}

	tbl.AddNote("Pipeline: traffic.Ingestor coalescing last-write-wins over a %d-arc hot pool (max batch %d, max delay %v), applied through Server.ApplyWeights — one snapshot swap per batch — with the pipelined refresh worker folding batches into single RecustomizeNow runs.", len(pool), streamMaxBatch, streamMaxDelay)
	tbl.AddNote("Every applied batch was verified before the next batch could land: its changes against the post-batch snapshot, one served pair against reference Dijkstra on the graph its reply's ContentSum names; profile queries ran on the prewarmed am-peak layer with zero customization work (layer misses stayed flat across the sweep).")
	tbl.AddNote("Acceptance bar: >= 100 events/sec coalesced at full scale; refresh runs track batches (not raw events); the visibility lag stays near one incremental re-customization latency.")
	return []*Table{tbl}, nil
}

// Streaming pipeline knobs for E18: a longer-than-default flush delay keeps
// the per-batch reference verification (a full Dijkstra on the coalescer
// goroutine) from dominating the pipeline at full scale.
const (
	streamMaxBatch = 256
	streamMaxDelay = 50 * time.Millisecond
)

// streamRow is one rate's measurements.
type streamRow struct {
	achieved    float64
	events      int64
	batches     int64
	ratio       float64
	refreshRuns int64
	p99Live     float64
	p99Profile  float64
	maxLagMS    float64
}

// runStreamingRate drives one paced event stream against srv with concurrent
// live and profile query load, verifying every applied batch.
func runStreamingRate(srv *server.Server, g *roadnet.Graph, pool [][2]roadnet.NodeID, orig map[[2]roadnet.NodeID]float64, rng *rand.Rand, rate int, dur time.Duration) (streamRow, error) {
	var row streamRow

	// Per-batch verification on the coalescer goroutine — the snapshot
	// cannot move under it — so errors are collected, not returned, and
	// checked after Close. The refresh worker publishes concurrently, so the
	// sampled pair may be served from an earlier graph than the batch's:
	// every graph of the run is recorded by content checksum and the reply
	// is checked against the one its ContentSum names. The run starts
	// published (the previous rate's Close published its last batch).
	var verifyMu sync.Mutex
	var verifyErr error
	fail := func(err error) {
		verifyMu.Lock()
		if verifyErr == nil {
			verifyErr = err
		}
		verifyMu.Unlock()
	}
	first := srv.Graph()
	graphs := map[uint64]*roadnet.Graph{first.ContentChecksum(): first}
	// servedExactly serves the pair (s, d) and checks the reply against
	// reference Dijkstra on the graph its ContentSum names.
	servedExactly := func(gen uint64, s, d roadnet.NodeID) error {
		reply, err := srv.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{s}, Dests: []roadnet.NodeID{d}})
		if err != nil {
			return err
		}
		served := graphs[reply.ContentSum]
		if served == nil {
			return fmt.Errorf("experiments: E18 gen %d: reply ContentSum %x names no graph of the run", gen, reply.ContentSum)
		}
		want, _, err := search.ReferenceDijkstra(storage.NewMemoryGraph(served), s, d)
		if err != nil {
			return err
		}
		wantDist := want.Cost
		if len(want.Nodes) == 0 && s != d {
			wantDist = math.Inf(1)
		}
		got := math.Inf(1)
		if len(reply.Paths) > 0 && (len(reply.Paths[0].Nodes) > 0 || s == d) {
			got = reply.Paths[0].Cost
		}
		if got != wantDist && math.Abs(got-wantDist) > 1e-9*(1+math.Abs(wantDist)) {
			return fmt.Errorf("experiments: E18 gen %d: pair (%d,%d) served %v, reference says %v", gen, s, d, got, wantDist)
		}
		return nil
	}
	vrng := rand.New(rand.NewSource(int64(1820 + rate)))
	onApplied := func(changes []roadnet.ArcWeightChange, gen uint64) {
		cur := srv.Graph()
		graphs[cur.ContentChecksum()] = cur
		for _, c := range changes {
			if got, ok := cur.ArcCost(c.From, c.To); !ok || got != c.NewCost {
				fail(fmt.Errorf("experiments: E18 gen %d: arc (%d,%d) applied cost %v, snapshot has %v", gen, c.From, c.To, c.NewCost, got))
				return
			}
		}
		s := roadnet.NodeID(vrng.Intn(g.NumNodes()))
		d := roadnet.NodeID(vrng.Intn(g.NumNodes()))
		if err := servedExactly(gen, s, d); err != nil {
			fail(err)
		}
	}

	in, err := srv.NewIngestor(traffic.Config{
		MaxBatch:  streamMaxBatch,
		MaxDelay:  streamMaxDelay,
		OnApplied: onApplied,
	})
	if err != nil {
		return row, err
	}

	missesBefore := srv.Metrics().Counter("profile_layer_misses")

	// Query load: one goroutine alternating live-metric and profile-layer
	// point queries, collecting per-kind latencies.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var liveLat, profLat []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		qrng := rand.New(rand.NewSource(int64(1821 + rate)))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := protocol.ServerQuery{
				Sources: []roadnet.NodeID{roadnet.NodeID(qrng.Intn(g.NumNodes()))},
				Dests:   []roadnet.NodeID{roadnet.NodeID(qrng.Intn(g.NumNodes()))},
			}
			profile := i%2 == 1
			if profile {
				q.Profile = costmodel.ProfileAMPeak
			}
			qs := time.Now()
			_, qerr := srv.Evaluate(q)
			ms := float64(time.Since(qs).Microseconds()) / 1000
			if qerr != nil {
				continue
			}
			if profile {
				profLat = append(profLat, ms)
			} else {
				liveLat = append(liveLat, ms)
			}
		}
	}()

	// Visibility-lag monitor.
	var lagMu sync.Mutex
	var worstLag time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		var since time.Time
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if srv.OverlayFresh() {
					since = time.Time{}
					continue
				}
				if since.IsZero() {
					since = time.Now()
				} else if d := time.Since(since); d > worstLag {
					lagMu.Lock()
					worstLag = d
					lagMu.Unlock()
				}
			}
		}
	}()

	// The paced stream itself. Events follow an absolute schedule (event i
	// due at start + i*interval): when a sleep overshoots — coarse timer
	// granularity at high rates — the loop catches up with a burst instead of
	// silently undershooting the target rate.
	interval := time.Second / time.Duration(rate)
	total := int(dur / interval)
	start := time.Now()
	for i := 0; i < total; i++ {
		if wait := start.Add(time.Duration(i) * interval).Sub(time.Now()); wait > 0 {
			time.Sleep(wait)
		}
		key := pool[rng.Intn(len(pool))]
		cost := 1 + rng.Float64()*30
		if rng.Intn(6) == 0 {
			cost = orig[key]
		}
		if err := in.Ingest(roadnet.ArcWeightChange{From: key[0], To: key[1], NewCost: cost}); err != nil {
			_ = in.Close()
			close(stop)
			wg.Wait()
			return row, err
		}
	}
	// The streaming window ends here; Close (drain + final flush + final
	// refresh) is deliberately outside the throughput measurement.
	wall := time.Since(start)
	if err := in.Close(); err != nil {
		close(stop)
		wg.Wait()
		return row, err
	}
	close(stop)
	wg.Wait()

	verifyMu.Lock()
	vErr := verifyErr
	verifyMu.Unlock()
	if vErr != nil {
		return row, vErr
	}
	if !srv.OverlayFresh() {
		return row, fmt.Errorf("experiments: E18 rate %d: applied batches still unpublished after Close", rate)
	}
	if missesAfter := srv.Metrics().Counter("profile_layer_misses"); missesAfter != missesBefore {
		return row, fmt.Errorf("experiments: E18 rate %d: profile layer misses grew %d -> %d under churn; the query path must stay precustomized", rate, missesBefore, missesAfter)
	}

	st := in.Stats()
	row.achieved = float64(st.Events) / wall.Seconds()
	row.events = st.Events
	row.batches = st.Batches
	row.ratio = st.CoalesceRatio()
	row.refreshRuns = st.RefreshRuns
	row.p99Live = percentileMS(liveLat, 0.99)
	row.p99Profile = percentileMS(profLat, 0.99)
	lagMu.Lock()
	row.maxLagMS = float64(worstLag.Microseconds()) / 1000
	lagMu.Unlock()
	return row, nil
}

// hotArcPool collects up to max distinct arcs, spread across the graph,
// with their original costs for revert events.
func hotArcPool(g *roadnet.Graph, max int) ([][2]roadnet.NodeID, map[[2]roadnet.NodeID]float64) {
	pool := make([][2]roadnet.NodeID, 0, max)
	orig := make(map[[2]roadnet.NodeID]float64, max)
	stride := g.NumNodes()/max + 1
	for v := 0; v < g.NumNodes() && len(pool) < max; v += stride {
		for _, a := range g.Arcs(roadnet.NodeID(v)) {
			key := [2]roadnet.NodeID{roadnet.NodeID(v), a.To}
			if _, seen := orig[key]; seen {
				continue
			}
			orig[key] = a.Cost
			pool = append(pool, key)
			break
		}
	}
	return pool, orig
}

// percentileMS returns the p-th percentile of the sample, 0 when empty.
func percentileMS(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(p * float64(len(s)-1))
	return s[idx]
}
