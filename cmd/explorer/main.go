// Command explorer serves a generated world over HTTP in the style of
// explorer.helium.com: hotspot listings, network statistics, coverage
// figures, and the full measurement report.
//
// Endpoints:
//
//	GET /stats            network headline numbers (JSON)
//	GET /hotspots         all hotspots with locations and names (JSON)
//	GET /hotspots/{addr}  one hotspot
//	GET /coverage         Fig 12 model percentages (JSON)
//	GET /report           plain-text measurement report
//	GET /study            live materialized analytics: the §3–§6 views
//	                      maintained incrementally off the store tail,
//	                      with staleness fields (height, store tip, lag)
//	                      and trailing-window rates
//	GET /etl              ETL store shape: segments, postings, rollups,
//	                      store health (WAL depth, quarantine, ingest retries,
//	                      last append), the live view's lag behind the tip,
//	                      plus per-shard federation health, lag,
//	                      and supervisor state (restarts, breaker)
//	GET /txns             federated transaction search with cursor pagination
//	                      (?type=payment&actor=<addr>&from=0&to=100&limit=50
//	                       &cursor=<h>-<seq>&region=<0..23>)
//	GET /tail             streams blocks from the store's tail as
//	                      NDJSON (?after=<height>&limit=<n>&full=1)
//
// Usage:
//
//	explorer -listen :8080 -scale small -seed 42
//	explorer -shards 8   # federation size (region-partitioned shards)
//	explorer -store ./etl-store   # durable index, reloaded across restarts
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/coverage"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/fed"
	"peoplesnet/internal/names"
)

type server struct {
	world *peoplesnet.World
	study *peoplesnet.Study
	store *etl.Store
	// live maintains the §3–§6 analyses as materialized views off the
	// store's block tail; /study serves its snapshots and /etl its lag.
	live *peoplesnet.LiveStudy
	// follower is non-nil when the store is durable (-store): the live
	// tail whose first ingest error /etl surfaces.
	follower *etl.Follower
	// cluster is the federated query tier /txns is served from; /etl
	// reports its per-shard health.
	cluster *fed.Cluster
}

type hotspotJSON struct {
	Address string  `json:"address"`
	Name    string  `json:"name"`
	Owner   string  `json:"owner"`
	Lat     float64 `json:"lat"`
	Lon     float64 `json:"lon"`
	Online  bool    `json:"online"`
	City    string  `json:"city"`
	Country string  `json:"country"`
}

func (s *server) hotspotJSON(i int) hotspotJSON {
	h := s.world.World.Hotspots[i]
	city := s.world.World.Cities[h.City]
	return hotspotJSON{
		Address: h.Address,
		Name:    names.FromAddress(h.Address),
		Owner:   s.world.World.Owners[h.OwnerIdx].Address,
		Lat:     h.Asserted.Lat,
		Lon:     h.Asserted.Lon,
		Online:  h.Online,
		City:    city.Name,
		Country: city.Country,
	}
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	days := len(s.world.ConnectedByDay)
	writeJSON(w, map[string]any{
		"connected":      s.world.ConnectedByDay[days-1],
		"online":         s.world.OnlineByDay[days-1],
		"us_online":      s.world.USOnlineByDay[days-1],
		"txns_notional":  s.study.Summary.TotalTxns,
		"poc_share":      s.study.Summary.PoCFraction,
		"owners":         s.study.Ownership.Owners,
		"relayed_frac":   s.study.Relays.Stats.RelayedFraction(),
		"console_share":  s.study.Traffic.ConsoleShare,
		"final_pkts_sec": s.study.Traffic.FinalPktPerSec,
	})
}

func (s *server) handleHotspots(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/hotspots")
	rest = strings.TrimPrefix(rest, "/")
	if rest == "" {
		out := make([]hotspotJSON, 0, len(s.world.World.Hotspots))
		for i := range s.world.World.Hotspots {
			out = append(out, s.hotspotJSON(i))
		}
		writeJSON(w, out)
		return
	}
	for i, h := range s.world.World.Hotspots {
		if h.Address == rest || names.Slug(names.FromAddress(h.Address)) == rest {
			writeJSON(w, s.hotspotJSON(i))
			return
		}
	}
	http.NotFound(w, r)
}

func (s *server) handleCoverage(w http.ResponseWriter, _ *http.Request) {
	cov := peoplesnet.CoverageStudy(s.world)
	writeJSON(w, map[string]any{
		"conus_hotspots":   cov.Hotspots,
		"challenges":       cov.Challenges,
		"radius_300m_pct":  cov.Radius300m.Fraction * 100,
		"convex_hull_pct":  cov.ConvexHull.Fraction * 100,
		"hull_25km_pct":    cov.Hull25km.Fraction * 100,
		"radial_rssi_pct":  cov.RadialRSSI.Fraction * 100,
		"witness_rssi_med": cov.WitnessRSSI.Median(),
		"witness_dist_med": cov.WitnessDistKm.Median(),
	})
}

// handleCoverageGeoJSON serves the PoC witness hulls as a GeoJSON
// FeatureCollection for map overlays.
func (s *server) handleCoverageGeoJSON(w http.ResponseWriter, _ *http.Request) {
	challenges := coverage.FromChain(s.world.Chain)
	hulls := coverage.HullPolygons(challenges, coverage.WitnessCutoffKm)
	type feature struct {
		Type     string         `json:"type"`
		Geometry map[string]any `json:"geometry"`
		Props    map[string]any `json:"properties"`
	}
	features := make([]feature, 0, len(hulls))
	for _, h := range hulls {
		features = append(features, feature{
			Type: "Feature",
			Geometry: map[string]any{
				"type":        "Polygon",
				"coordinates": h.GeoJSONCoordinates(),
			},
			Props: map[string]any{"area_km2": h.AreaKm2()},
		})
	}
	writeJSON(w, map[string]any{"type": "FeatureCollection", "features": features})
}

// handleStudy serves the live materialized views: one consistent
// snapshot of the incrementally-maintained §3–§6 analyses, plus the
// staleness bookkeeping a dashboard needs to trust it. The core
// analysis types carry unexported fold state, so the response is an
// explicit digest rather than a raw marshal.
func (s *server) handleStudy(w http.ResponseWriter, _ *http.Request) {
	if s.live == nil {
		http.Error(w, "live study not attached", http.StatusServiceUnavailable)
		return
	}
	sn := s.live.Snapshot()
	resp := map[string]any{
		"height":       sn.Height,
		"first_height": sn.FirstHeight,
		"store_tip":    sn.StoreTip,
		"lag_blocks":   sn.LagBlocks,
		"blocks":       sn.Blocks,
		"txns":         sn.Txns,
		"apply_errs":   sn.ApplyErrs,
		"summary": map[string]any{
			"total_txns": sn.Summary.TotalTxns,
			"poc_share":  sn.Summary.PoCFraction,
		},
		"moves": map[string]any{
			"hotspots":         sn.Moves.Hotspots,
			"never_moved_frac": sn.Moves.NeverMovedFrac,
			"long_moves":       len(sn.Moves.LongMoves),
			"within_day_frac":  sn.Moves.WithinDayFrac,
			"within_week_frac": sn.Moves.WithinWeekFrac,
			"within_mo_frac":   sn.Moves.WithinMoFrac,
		},
		"growth": map[string]any{
			"total":      sn.Growth.Total,
			"final_rate": sn.Growth.FinalRate,
			"peak_daily": sn.Growth.PeakDaily,
		},
		"ownership": map[string]any{
			"owners":        sn.Ownership.Owners,
			"own_one_frac":  sn.Ownership.OwnOneFrac,
			"at_most_three": sn.Ownership.AtMostThree,
			"max_owned":     sn.Ownership.MaxOwned,
			"bulk_owners":   len(sn.Ownership.Bulk),
		},
		"resale": map[string]any{
			"total_transfers":      sn.Resale.TotalTransfers,
			"transferred_hotspots": sn.Resale.TransferredHotspots,
			"transferred_frac":     sn.Resale.TransferredFrac,
			"zero_dc_frac":         sn.Resale.ZeroDCFrac,
		},
		"traffic": map[string]any{
			"total_packets":  sn.Traffic.TotalPackets,
			"console_share":  sn.Traffic.ConsoleShare,
			"final_pkts_sec": sn.Traffic.FinalPktPerSec,
		},
		"window": map[string]any{
			"days":      sn.Window.Days,
			"tip_day":   sn.Window.TipDay,
			"adds":      sn.Window.Adds,
			"moves":     sn.Window.Moves,
			"transfers": sn.Window.Transfers,
		},
	}
	if err := s.live.Err(); err != nil {
		resp["replica_error"] = err.Error()
	}
	writeJSON(w, resp)
}

func (s *server) handleETL(w http.ResponseWriter, _ *http.Request) {
	st := s.store.Stats()
	agg := s.store.Aggregates()
	mix := make(map[string]int64, len(agg.Mix))
	for tt, n := range agg.Mix {
		mix[tt.String()] = n
	}
	resp := map[string]any{
		"blocks":          st.Blocks,
		"txns":            st.Txns,
		"segments":        st.Segments,
		"pending_blocks":  st.PendingBlocks,
		"first_height":    st.FirstHeight,
		"tip_height":      st.TipHeight,
		"type_postings":   st.TypePostings,
		"actor_postings":  st.ActorPostings,
		"shared_postings": st.SharedPostings,
		"txn_mix":         mix,
		"transfers":       agg.Transfers,
		"total_packets":   agg.TotalPackets,
		"segment_ranges":  s.store.Segments(),
		"health":          s.store.Health(),
	}
	if s.follower != nil {
		if err := s.follower.Err(); err != nil {
			resp["follower_error"] = err.Error()
		}
	}
	if s.live != nil {
		resp["live_view"] = map[string]any{
			"height":     s.live.Height(),
			"lag_blocks": s.live.Lag(),
		}
	}
	if s.cluster != nil {
		federation := map[string]any{
			"partition":    "region",
			"num_shards":   s.cluster.Partition().NumShards(),
			"source_tip":   s.world.Chain.Height(),
			"shards":       s.cluster.Shards(),
			"result_cache": s.cluster.Router().CacheStats(),
		}
		if sup := s.cluster.Supervisor(); sup != nil {
			federation["supervisor"] = sup.Status()
		}
		resp["federation"] = federation
	}
	writeJSON(w, resp)
}

// handleTxns serves federated transaction search: the query is
// planned against the shard partition, fanned out, and the per-shard
// pages k-way merged into one chain-ordered page with a resume
// cursor.
func (s *server) handleTxns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fq := fed.Query{Kind: fed.KindTxns, Range: etl.All(), Limit: 100}
	if name := q.Get("type"); name != "" {
		tt, ok := chain.ParseTxnType(name)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown txn type %q", name), http.StatusBadRequest)
			return
		}
		fq.Filter.Types = []chain.TxnType{tt}
	}
	if actor := q.Get("actor"); actor != "" {
		fq.Filter.Actors = []string{actor}
	}
	var err error
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"from", &fq.Range.From}, {"to", &fq.Range.To}} {
		if v := q.Get(p.name); v != "" {
			if *p.dst, err = strconv.ParseInt(v, 10, 64); err != nil {
				http.Error(w, p.name+": "+err.Error(), http.StatusBadRequest)
				return
			}
		}
	}
	if v := q.Get("limit"); v != "" {
		if fq.Limit, err = strconv.Atoi(v); err != nil || fq.Limit < 1 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("cursor"); v != "" {
		if fq.Cursor, err = fed.ParseCursor(v); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("region"); v != "" {
		reg, err := strconv.Atoi(v)
		if err != nil || reg < 0 || reg >= fed.NumRegions {
			http.Error(w, fmt.Sprintf("bad region (want 0..%d)", fed.NumRegions-1), http.StatusBadRequest)
			return
		}
		fq.HasRegion, fq.Region = true, reg
	}

	res, err := s.cluster.Query(r.Context(), fq)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	resp := map[string]any{
		"txns":                res.Txns,
		"has_more":            res.HasMore,
		"shards_planned":      len(res.Planned),
		"shards_contributing": res.Contributing,
		"elapsed_us":          res.Elapsed.Microseconds(),
	}
	if res.HasMore {
		resp["next_cursor"] = res.Next.String()
	}
	if len(res.Stale) > 0 {
		resp["stale"] = res.Stale
	}
	if len(res.Gaps) > 0 {
		resp["gaps"] = res.Gaps
	}
	writeJSON(w, resp)
}

// handleTail streams blocks from the explorer store's lossless tail
// as NDJSON, one block per line, until the client disconnects
// (or ?limit=<n> blocks have been sent). ?after=<height> positions
// the tail (-1 replays everything; default is the current tip, i.e.
// only new blocks). ?full=1 includes transaction bodies.
func (s *server) handleTail(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	after := s.world.Chain.Height()
	var err error
	if v := q.Get("after"); v != "" {
		if after, err = strconv.ParseInt(v, 10, 64); err != nil {
			http.Error(w, "bad after: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
	}
	full := q.Get("full") == "1"

	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	tail := s.store.Follow(after)
	defer tail.Close()
	// A disconnected client unblocks the tail's Next.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-r.Context().Done():
			tail.Close()
		case <-stop:
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for sent := 0; limit == 0 || sent < limit; sent++ {
		b, ok := tail.Next()
		if !ok {
			return
		}
		line := map[string]any{
			"height":    b.Height,
			"timestamp": b.Timestamp,
			"hash":      b.Hash,
			"txn_count": len(b.Txns),
		}
		if full {
			line["txns"] = b.Txns
		}
		if err := enc.Encode(line); err != nil {
			return
		}
		flusher.Flush()
	}
}

func (s *server) handleReport(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.study.RenderText())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8080", "listen address")
		seed     = flag.Uint64("seed", 1, "world seed")
		scale    = flag.String("scale", "small", "small | paper")
		storeDir = flag.String("store", "", "durable ETL store directory; must come from the same seed and scale")
		shards   = flag.Int("shards", 4, "federated shard count")
	)
	flag.Parse()

	cfg := peoplesnet.SmallWorld(*seed)
	if *scale == "paper" {
		cfg = peoplesnet.PaperWorld(*seed)
	}
	log.Printf("generating %s world (seed %d)…", *scale, *seed)
	world, err := peoplesnet.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s := &server{world: world}
	if *storeDir != "" {
		store, err := etl.Open(*storeDir, etl.Config{})
		if err != nil {
			log.Fatal("store: ", err)
		}
		log.Printf("store: reloaded %s to height %d (%d segments, %d quarantined)",
			*storeDir, store.Height(), store.Health().Segments, store.Health().Quarantined)
		if err := store.Repair(world.Chain); err != nil {
			log.Printf("store: repair: %v (serving with gaps; see /etl)", err)
		}
		// Catch the reloaded store up synchronously so the batch study
		// below measures the full chain, then keep following for
		// anything appended later.
		if err := store.BulkLoad(world.Chain); err != nil {
			log.Fatal("store: catch-up: ", err)
		}
		s.store = store
		s.follower = store.FollowChain(world.Chain)
	} else {
		s.store = etl.FromChain(world.Chain)
	}
	// Both paths measure the store in place: the index is built (or
	// reloaded) exactly once, never rebuilt just to render a report.
	s.study = peoplesnet.MeasureStore(s.store, world)
	s.live = peoplesnet.Live(s.store, world, peoplesnet.DefaultMeasureOptions())
	defer s.live.Close()

	cluster, err := buildCluster(world.Chain, *shards)
	if err != nil {
		log.Fatal(err)
	}
	s.cluster = cluster
	log.Printf("federation: %d region-partitioned shards caught up to height %d",
		*shards, world.Chain.Height())

	mux := http.NewServeMux()
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/hotspots", s.handleHotspots)
	mux.HandleFunc("/hotspots/", s.handleHotspots)
	mux.HandleFunc("/coverage", s.handleCoverage)
	mux.HandleFunc("/coverage.geojson", s.handleCoverageGeoJSON)
	mux.HandleFunc("/report", s.handleReport)
	mux.HandleFunc("/study", s.handleStudy)
	mux.HandleFunc("/etl", s.handleETL)
	mux.HandleFunc("/txns", s.handleTxns)
	mux.HandleFunc("/tail", s.handleTail)

	log.Printf("explorer listening on http://%s (stats, hotspots, coverage, report, study, etl, txns, tail)", *listen)
	log.Fatal(http.ListenAndServe(*listen, mux))
}

// buildCluster stands up the in-process federated tier behind /txns
// and /etl's shard health, and waits for it to catch up to the
// chain tip before serving.
func buildCluster(c *chain.Chain, shards int) (*fed.Cluster, error) {
	cluster := fed.FollowChain(c, fed.ByRegion(shards), fed.Options{
		PerShardTimeout: 10 * time.Second,
		LagBudget:       64,
	})
	// Self-healing: the supervisor restarts crashed or wedged shards
	// with backoff and trips the per-shard breaker if one cannot come
	// back; /etl's federation.supervisor block reports the state.
	cluster.Supervise(fed.SupervisorOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cluster.WaitHeight(ctx, c.Height()); err != nil {
		cluster.Close()
		return nil, fmt.Errorf("federation catch-up: %w", err)
	}
	return cluster, nil
}
