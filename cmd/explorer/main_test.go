package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/names"
)

var (
	srvOnce sync.Once
	srv     *server
	srvErr  error
)

func testServer(t *testing.T) *server {
	t.Helper()
	srvOnce.Do(func() {
		cfg := peoplesnet.SmallWorld(55)
		cfg.Days = 250
		cfg.TargetHotspots = 300
		world, err := peoplesnet.Simulate(cfg)
		if err != nil {
			srvErr = err
			return
		}
		cluster, err := buildCluster(world.Chain, 4)
		if err != nil {
			srvErr = err
			return
		}
		store := etl.FromChain(world.Chain)
		srv = &server{
			world:   world,
			study:   peoplesnet.MeasureStore(store, world),
			store:   store,
			live:    peoplesnet.Live(store, world, peoplesnet.DefaultMeasureOptions()),
			cluster: cluster,
		}
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv
}

func mux(s *server) *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/stats", s.handleStats)
	m.HandleFunc("/hotspots", s.handleHotspots)
	m.HandleFunc("/hotspots/", s.handleHotspots)
	m.HandleFunc("/coverage", s.handleCoverage)
	m.HandleFunc("/coverage.geojson", s.handleCoverageGeoJSON)
	m.HandleFunc("/report", s.handleReport)
	m.HandleFunc("/study", s.handleStudy)
	m.HandleFunc("/etl", s.handleETL)
	m.HandleFunc("/txns", s.handleTxns)
	m.HandleFunc("/tail", s.handleTail)
	return m
}

func TestStatsEndpoint(t *testing.T) {
	ts := httptest.NewServer(mux(testServer(t)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"connected", "online", "owners", "poc_share", "relayed_frac"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("stats missing %q: %v", key, stats)
		}
	}
	if stats["connected"].(float64) <= 0 {
		t.Fatal("no connected hotspots")
	}
}

func TestHotspotsEndpoint(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(mux(s))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/hotspots")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all []hotspotJSON
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != len(s.world.World.Hotspots) {
		t.Fatalf("listed %d of %d hotspots", len(all), len(s.world.World.Hotspots))
	}
	if all[0].Name == "" || all[0].Address == "" {
		t.Fatalf("hotspot row incomplete: %+v", all[0])
	}

	// Single lookup by address.
	one, err := http.Get(ts.URL + "/hotspots/" + all[0].Address)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Body.Close()
	var h hotspotJSON
	if err := json.NewDecoder(one.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Address != all[0].Address {
		t.Fatal("wrong hotspot returned")
	}
	// Lookup by name slug, explorer-style.
	slug, err := http.Get(ts.URL + "/hotspots/" + names.Slug(h.Name))
	if err != nil {
		t.Fatal(err)
	}
	slug.Body.Close()
	if slug.StatusCode != http.StatusOK {
		t.Fatalf("slug lookup status %d", slug.StatusCode)
	}
	// Unknown hotspot 404s.
	missing, _ := http.Get(ts.URL + "/hotspots/nope")
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing hotspot status %d", missing.StatusCode)
	}
}

func TestCoverageEndpoint(t *testing.T) {
	ts := httptest.NewServer(mux(testServer(t)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/coverage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cov map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&cov); err != nil {
		t.Fatal(err)
	}
	if cov["radius_300m_pct"] < 0 || cov["radial_rssi_pct"] < cov["radius_300m_pct"] {
		t.Fatalf("coverage ordering broken: %v", cov)
	}
}

// TestCoverageGeoJSONEndpoint: /coverage.geojson is a FeatureCollection
// of closed witness-hull polygons with positive areas.
func TestCoverageGeoJSONEndpoint(t *testing.T) {
	ts := httptest.NewServer(mux(testServer(t)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/coverage.geojson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fc struct {
		Type     string `json:"type"`
		Features []struct {
			Geometry struct {
				Type        string         `json:"type"`
				Coordinates [][][2]float64 `json:"coordinates"`
			} `json:"geometry"`
			Props struct {
				AreaKm2 float64 `json:"area_km2"`
			} `json:"properties"`
		} `json:"features"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fc); err != nil {
		t.Fatal(err)
	}
	if fc.Type != "FeatureCollection" || len(fc.Features) == 0 {
		t.Fatalf("got %q with %d features", fc.Type, len(fc.Features))
	}
	for i, f := range fc.Features {
		ring := f.Geometry.Coordinates
		if f.Geometry.Type != "Polygon" || len(ring) != 1 || len(ring[0]) < 4 {
			t.Fatalf("feature %d: %s with rings %v", i, f.Geometry.Type, ring)
		}
		if ring[0][0] != ring[0][len(ring[0])-1] {
			t.Fatalf("feature %d: ring not closed", i)
		}
		if f.Props.AreaKm2 <= 0 {
			t.Fatalf("feature %d: area %v km²", i, f.Props.AreaKm2)
		}
	}
}

func TestReportEndpoint(t *testing.T) {
	ts := httptest.NewServer(mux(testServer(t)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if n < 500 {
		t.Fatalf("report too short: %d bytes", n)
	}
}

// TestTxnsFederatedPagination walks /txns with a cursor and checks
// the concatenated pages equal the raw chain's listing exactly.
func TestTxnsFederatedPagination(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(mux(s))
	defer ts.Close()

	type txnRow struct {
		Height int64  `json:"height"`
		Seq    int32  `json:"seq"`
		Hash   string `json:"hash"`
		Type   string `json:"type"`
	}
	type page struct {
		Txns       []txnRow `json:"txns"`
		HasMore    bool     `json:"has_more"`
		NextCursor string   `json:"next_cursor"`
		Planned    int      `json:"shards_planned"`
	}

	var walked []txnRow
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 10000 {
			t.Fatal("pagination never terminated")
		}
		url := ts.URL + "/txns?type=payment&limit=25"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var p page
		err = json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if p.Planned == 0 {
			t.Fatal("no shards planned")
		}
		walked = append(walked, p.Txns...)
		if !p.HasMore {
			break
		}
		if p.NextCursor == "" {
			t.Fatal("has_more without next_cursor")
		}
		cursor = p.NextCursor
	}

	// Baseline straight off the chain.
	var want []txnRow
	for _, b := range s.world.Chain.Blocks() {
		for i, txn := range b.Txns {
			if txn.TxnType() == chain.TxnPayment {
				want = append(want, txnRow{Height: b.Height, Seq: int32(i), Hash: chain.Hash(txn), Type: "payment"})
			}
		}
	}
	if len(walked) != len(want) {
		t.Fatalf("walked %d payments, want %d", len(walked), len(want))
	}
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("page row %d = %+v, want %+v", i, walked[i], want[i])
		}
	}
}

// TestStudyEndpoint waits for the live study to catch the store tip,
// then checks /study reports zero lag and headline numbers that agree
// with the batch study served by /report.
func TestStudyEndpoint(t *testing.T) {
	s := testServer(t)
	deadline := time.Now().Add(30 * time.Second)
	for s.live.Lag() > 0 || s.live.Height() < s.world.Chain.Height() {
		if !time.Now().Before(deadline) {
			t.Fatalf("live study stuck at height %d, store tip %d", s.live.Height(), s.store.Height())
		}
		time.Sleep(time.Millisecond)
	}
	ts := httptest.NewServer(mux(s))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/study")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Height    int64 `json:"height"`
		StoreTip  int64 `json:"store_tip"`
		LagBlocks int64 `json:"lag_blocks"`
		ApplyErrs int64 `json:"apply_errs"`
		Summary   struct {
			TotalTxns int64 `json:"total_txns"`
		} `json:"summary"`
		Growth struct {
			Total int64 `json:"total"`
		} `json:"growth"`
		Ownership struct {
			Owners int `json:"owners"`
		} `json:"ownership"`
		Window struct {
			Days   int   `json:"days"`
			TipDay int64 `json:"tip_day"`
		} `json:"window"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	tip := s.world.Chain.Height()
	if out.Height != tip || out.StoreTip != tip || out.LagBlocks != 0 {
		t.Fatalf("staleness fields: height=%d store_tip=%d lag=%d, want all caught up to %d",
			out.Height, out.StoreTip, out.LagBlocks, tip)
	}
	if out.ApplyErrs != 0 {
		t.Fatalf("ledger replica rejected %d transactions", out.ApplyErrs)
	}
	// The live views must agree with the batch study at the same tip.
	if out.Summary.TotalTxns != s.study.Summary.TotalTxns {
		t.Fatalf("live total_txns %d != batch %d", out.Summary.TotalTxns, s.study.Summary.TotalTxns)
	}
	if out.Growth.Total != int64(s.study.Growth.Total) {
		t.Fatalf("live growth total %d != batch %d", out.Growth.Total, s.study.Growth.Total)
	}
	if out.Ownership.Owners != s.study.Ownership.Owners {
		t.Fatalf("live owners %d != batch %d", out.Ownership.Owners, s.study.Ownership.Owners)
	}
	if out.Window.Days != 30 || out.Window.TipDay != tip/chain.BlocksPerDay {
		t.Fatalf("window meta = %+v, want 30 days at tip day %d", out.Window, tip/chain.BlocksPerDay)
	}

	// /etl reports the same view's lag behind the store tip.
	etlResp, err := http.Get(ts.URL + "/etl")
	if err != nil {
		t.Fatal(err)
	}
	defer etlResp.Body.Close()
	var etlOut struct {
		LiveView *struct {
			Height    int64 `json:"height"`
			LagBlocks int64 `json:"lag_blocks"`
		} `json:"live_view"`
	}
	if err := json.NewDecoder(etlResp.Body).Decode(&etlOut); err != nil {
		t.Fatal(err)
	}
	if etlOut.LiveView == nil {
		t.Fatal("/etl missing live_view block")
	}
	if etlOut.LiveView.Height != tip || etlOut.LiveView.LagBlocks != 0 {
		t.Fatalf("/etl live_view = %+v, want caught up to %d", *etlOut.LiveView, tip)
	}
}

// TestETLFederationHealth asserts /etl reports per-shard lag fields.
func TestETLFederationHealth(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(mux(s))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/etl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Federation struct {
			Partition string `json:"partition"`
			NumShards int    `json:"num_shards"`
			SourceTip int64  `json:"source_tip"`
			Shards    []struct {
				ID     int             `json:"id"`
				Slice  string          `json:"slice"`
				Tip    *int64          `json:"tip"`
				Lag    *int64          `json:"lag_blocks"`
				Health json.RawMessage `json:"health"`
			} `json:"shards"`
			Supervisor []struct {
				Shard    int    `json:"shard"`
				State    string `json:"state"`
				Restarts int64  `json:"restarts"`
			} `json:"supervisor"`
		} `json:"federation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	f := out.Federation
	if f.Partition != "region" || f.NumShards != 4 || len(f.Shards) != 4 {
		t.Fatalf("federation block wrong: %+v", f)
	}
	for _, sh := range f.Shards {
		if sh.Tip == nil || sh.Lag == nil {
			t.Fatalf("shard %d missing tip/lag_blocks: %+v", sh.ID, sh)
		}
		if *sh.Tip != f.SourceTip || *sh.Lag != 0 {
			t.Fatalf("caught-up shard %d reports tip %d lag %d (source tip %d)", sh.ID, *sh.Tip, *sh.Lag, f.SourceTip)
		}
		if sh.Slice == "" || len(sh.Health) == 0 {
			t.Fatalf("shard %d missing slice/health: %+v", sh.ID, sh)
		}
	}
	if len(f.Supervisor) != 4 {
		t.Fatalf("supervisor block has %d shards, want 4: %+v", len(f.Supervisor), f.Supervisor)
	}
	for _, sh := range f.Supervisor {
		if sh.State != "running" || sh.Restarts != 0 {
			t.Fatalf("healthy shard %d reports state %q with %d restarts", sh.Shard, sh.State, sh.Restarts)
		}
	}
}

// TestTailEndpoint replays the first blocks through /tail and checks
// they match the chain.
func TestTailEndpoint(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(mux(s))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/tail?after=-1&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	blocks := s.world.Chain.Blocks()
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < 5; i++ {
		var line struct {
			Height   int64  `json:"height"`
			Hash     string `json:"hash"`
			TxnCount int    `json:"txn_count"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want := blocks[i]
		if line.Height != want.Height || line.Hash != want.Hash || line.TxnCount != len(want.Txns) {
			t.Fatalf("tail line %d = %+v, want (h=%d, %s, %d txns)", i, line, want.Height, want.Hash, len(want.Txns))
		}
	}
}
