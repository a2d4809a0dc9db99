package peoplesnet

// ETL benchmarks: ingest throughput (bulk load vs live follow vs
// steady-state append) and the indexed-vs-fullscan cost of the
// repeated §3/§4 queries the paper's analyses issue. The fullscan
// variants read raw blocks the way the seed analyses did; the indexed
// variants resolve through the etl store's posting lists and
// materialized aggregates. Same world-caching and scale knobs as
// bench_test.go.

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/core"
	"peoplesnet/internal/etl"
)

var (
	etlOnce      sync.Once
	etlBenchView *etl.Store
)

// etlStore indexes the cached bench world exactly once.
func etlStore(b *testing.B) (*World, *etl.Store) {
	w, _ := world(b)
	etlOnce.Do(func() { etlBenchView = etl.FromChain(w.Chain) })
	return w, etlBenchView
}

// --- ingest ---------------------------------------------------------------

func BenchmarkETLIngest_Bulk(b *testing.B) {
	w, _ := world(b)
	blocks := len(w.Chain.Blocks())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := etl.New(etl.Config{})
		if err := s.BulkLoad(w.Chain); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(blocks)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
}

func BenchmarkETLIngest_Follow(b *testing.B) {
	w, _ := world(b)
	blocks := len(w.Chain.Blocks())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := etl.New(etl.Config{})
		f := s.FollowChain(w.Chain)
		// Close drains the chain tail, so the whole history has been
		// ingested through the follower when it returns.
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		if s.Height() != w.Chain.Height() {
			b.Fatalf("follower stopped at %d, chain at %d", s.Height(), w.Chain.Height())
		}
	}
	b.ReportMetric(float64(blocks)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkETLIngest_Append measures the steady-state per-block cost
// on an already-loaded store — the O(N)-for-N-new-blocks incremental
// path, including aggregate updates and periodic segment sealing.
func BenchmarkETLIngest_Append(b *testing.B) {
	w, _ := world(b)
	s := etl.New(etl.Config{})
	if err := s.BulkLoad(w.Chain); err != nil {
		b.Fatal(err)
	}
	tip := s.Height()
	txns := []chain.Txn{&chain.Payment{Payer: "bench-a", Payee: "bench-b", AmountBones: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := &chain.Block{Height: tip + 1 + int64(i), Txns: txns}
		if err := s.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// --- repeated queries: indexed vs fullscan --------------------------------

// Transaction mix (§3, Table 1): materialized aggregate vs full scan.
func BenchmarkETLQuery_TxnMix_Indexed(b *testing.B) {
	_, s := etlStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.TxnMix()) == 0 {
			b.Fatal("empty mix")
		}
	}
}

func BenchmarkETLQuery_TxnMix_Fullscan(b *testing.B) {
	w, _ := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(w.Chain.TxnMix()) == 0 {
			b.Fatal("empty mix")
		}
	}
}

// Resale series (§4.3.3, Fig 7): every transfer_hotspot txn, via the
// per-type posting lists vs a full scan.
func BenchmarkETLQuery_Transfers_Indexed(b *testing.B) {
	_, s := etlStore(b)
	f := etl.Filter{Types: []chain.TxnType{chain.TxnTransferHotspot}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		s.Scan(etl.All(), f, func(int64, chain.Txn) bool { n++; return true })
		if n == 0 {
			b.Fatal("no transfers")
		}
	}
}

func BenchmarkETLQuery_Transfers_Fullscan(b *testing.B) {
	w, _ := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		w.Chain.ScanType(chain.TxnTransferHotspot, func(int64, chain.Txn) bool { n++; return true })
		if n == 0 {
			b.Fatal("no transfers")
		}
	}
}

// Hotspot timeline (§4.1): one hotspot's assert/transfer history via
// its actor posting lists vs a full scan with a mention check.
func BenchmarkETLQuery_HotspotTimeline_Indexed(b *testing.B) {
	w, s := etlStore(b)
	f := etl.Filter{
		Types:  []chain.TxnType{chain.TxnAssertLocation, chain.TxnTransferHotspot},
		Actors: []string{w.World.Hotspots[0].Address},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		s.Scan(etl.All(), f, func(int64, chain.Txn) bool { n++; return true })
		if n == 0 {
			b.Fatal("empty timeline")
		}
	}
}

func BenchmarkETLQuery_HotspotTimeline_Fullscan(b *testing.B) {
	w, _ := world(b)
	addr := w.World.Hotspots[0].Address
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		w.Chain.Scan(func(h int64, t chain.Txn) bool {
			switch v := t.(type) {
			case *chain.AssertLocation:
				if v.Gateway == addr {
					n++
				}
			case *chain.TransferHotspot:
				if v.Gateway == addr {
					n++
				}
			}
			return true
		})
		if n == 0 {
			b.Fatal("empty timeline")
		}
	}
}

// Adds per day (§4.2, Fig 5): materialized rollup vs recount.
func BenchmarkETLQuery_AddsPerDay_Indexed(b *testing.B) {
	_, s := etlStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.AddsPerDay()) == 0 {
			b.Fatal("no adds")
		}
	}
}

func BenchmarkETLQuery_AddsPerDay_Fullscan(b *testing.B) {
	w, _ := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adds := make(map[int64]int64)
		w.Chain.ScanType(chain.TxnAddGateway, func(h int64, _ chain.Txn) bool {
			adds[h/chain.BlocksPerDay]++
			return true
		})
		if len(adds) == 0 {
			b.Fatal("no adds")
		}
	}
}

// Wallet balance history (§4.3): core.BalanceHistory folds a raw
// chain scan; against a store view it costs the same plain Scan.
func BenchmarkETLQuery_BalanceHistory_Fullscan(b *testing.B) {
	w, _ := world(b)
	d := &core.Dataset{Chain: w.Chain}
	owner := w.World.Owners[0].Address
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.BalanceHistory(owner)
	}
}

// Full-history visit through the store's one scan surface.
func BenchmarkETLScan_Sequential(b *testing.B) {
	_, s := etlStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		s.Scan(etl.All(), etl.Filter{}, func(int64, chain.Txn) bool { n++; return true })
		if n == 0 {
			b.Fatal("empty scan")
		}
	}
}

// --- cold start: durable reload vs re-index --------------------------------

// Cold start is the paper's "ETL replica restart" cost: how long until
// the analyses can query again after the process dies. The reindex
// path replays the chain file and rebuilds every posting list; the
// reload path mmap-free reads the sealed segment files plus their
// index sidecars and merges per-segment aggregates — no per-txn work.
// Both start from disk, nothing cached in the process.

var (
	coldOnce     sync.Once
	coldChainPth string
	coldStoreDir string
	coldErr      error
)

// coldFixtures writes the bench world's chain to a JSON-lines file and
// builds a durable store from it, once, under a shared temp dir.
func coldFixtures(b *testing.B) (chainPath, storeDir string) {
	w, _ := world(b)
	coldOnce.Do(func() {
		dir, err := os.MkdirTemp("", "peoplesnet-coldstart")
		if err != nil {
			coldErr = err
			return
		}
		coldChainPth = filepath.Join(dir, "chain.jsonl")
		coldStoreDir = filepath.Join(dir, "store")
		f, err := os.Create(coldChainPth)
		if err != nil {
			coldErr = err
			return
		}
		if _, err := w.Chain.WriteTo(f); err != nil {
			f.Close()
			coldErr = err
			return
		}
		if coldErr = f.Close(); coldErr != nil {
			return
		}
		s, err := etl.Open(coldStoreDir, etl.Config{})
		if err != nil {
			coldErr = err
			return
		}
		if coldErr = s.BulkLoad(w.Chain); coldErr != nil {
			return
		}
		coldErr = s.Close()
	})
	if coldErr != nil {
		b.Fatal(coldErr)
	}
	return coldChainPth, coldStoreDir
}

func BenchmarkETLColdStart_Reindex(b *testing.B) {
	chainPath, _ := coldFixtures(b)
	want := benchRes.Chain.Height()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(chainPath)
		if err != nil {
			b.Fatal(err)
		}
		c, err := chain.ReadChain(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		if s := etl.FromChain(c); s.Height() != want {
			b.Fatalf("reindexed to %d, want %d", s.Height(), want)
		}
	}
}

func BenchmarkETLColdStart_Reload(b *testing.B) {
	_, storeDir := coldFixtures(b)
	want := benchRes.Chain.Height()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := etl.Open(storeDir, etl.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if h := s.Health(); h.Quarantined > 0 || len(h.Gaps) > 0 {
			b.Fatalf("unexpected damage on reload: %+v", h)
		}
		if s.Height() != want {
			b.Fatalf("reloaded to %d, want %d", s.Height(), want)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- storage engine v2: size, lazy cold start, checkpointed replay --------
//
// The BenchmarkStore* family backs EXPERIMENTS.md "Storage engine v2"
// and `make store-bench`: compressed-posting store size, cold-start
// time-to-first-query with lazy segment loading vs a full preload, and
// ledger replay resumed from a checkpoint vs replayed from genesis.

// BenchmarkStoreSize reports the v2 store's size profile: total
// on-disk bytes per block, compressed posting bytes, and bytes per
// posting entry (v1 spent 12 bytes per entry in memory and two
// absolute uvarints on disk — the compression-ratio baseline).
func BenchmarkStoreSize(b *testing.B) {
	_, storeDir := coldFixtures(b)
	s, err := etl.Open(storeDir, etl.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var st etl.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = s.Stats()
	}
	b.StopTimer()
	if st.Blocks == 0 || st.PostingsBytes == 0 {
		b.Fatalf("degenerate stats: %+v", st)
	}
	var diskBytes int64
	entries, err := os.ReadDir(storeDir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		diskBytes += info.Size()
	}
	postings := st.TypePostings + st.ActorPostings + st.SharedPostings
	b.ReportMetric(float64(diskBytes)/float64(st.Blocks), "store_B/block")
	b.ReportMetric(float64(st.PostingsBytes), "postings_B")
	b.ReportMetric(float64(st.PostingsBytes)/float64(postings), "postings_B/entry")
}

// Cold-start time-to-first-query: open the store and answer one
// tail-window indexed query. The lazy path reads the WAL tail plus the
// touched segments only; the preload pin materializes every segment
// first — the v1 open behavior.
func coldFirstQuery(b *testing.B, preload bool) {
	_, storeDir := coldFixtures(b)
	want := benchRes.Chain.Height()
	// The simulated tail carries state-channel closes and rewards at
	// every scale; denser types (PoC, payments) thin out near the tip.
	f := etl.Filter{Types: []chain.TxnType{chain.TxnStateChannelClose, chain.TxnRewards}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := etl.Open(storeDir, etl.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if preload {
			s.Preload()
		}
		tip := s.Height()
		if tip != want {
			b.Fatalf("reloaded to %d, want %d", tip, want)
		}
		var n int64
		s.Scan(etl.Range{From: tip - 63, To: tip}, f, func(int64, chain.Txn) bool { n++; return true })
		if n == 0 {
			b.Fatal("first query matched nothing")
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreColdStart_LazyFirstQuery(b *testing.B)    { coldFirstQuery(b, false) }
func BenchmarkStoreColdStart_PreloadFirstQuery(b *testing.B) { coldFirstQuery(b, true) }

// Ledger replay: resumed from the checkpoint written at the sealed
// boundary vs replayed from genesis. The full pin deletes the
// checkpoint before each open (replay rewrites it on the way out).
func BenchmarkStoreReplay_Checkpointed(b *testing.B) {
	_, storeDir := coldFixtures(b)
	s, err := etl.Open(storeDir, etl.Config{})
	if err != nil {
		b.Fatal(err)
	}
	// Seed the checkpoint so every timed iteration resumes from it.
	if _, err := s.ReplayLedger(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := etl.Open(storeDir, etl.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.ReplayLedger(); err != nil {
			b.Fatal(err)
		}
		if h := s.Health(); !strings.Contains(h.CheckpointNote, "replayed from checkpoint") {
			b.Fatalf("replay was not checkpointed: %q", h.CheckpointNote)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreReplay_Full(b *testing.B) {
	_, storeDir := coldFixtures(b)
	ckpt := filepath.Join(storeDir, "ledger.ckpt")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		os.Remove(ckpt)
		b.StartTimer()
		s, err := etl.Open(storeDir, etl.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.ReplayLedger(); err != nil {
			b.Fatal(err)
		}
		if h := s.Health(); !strings.Contains(h.CheckpointNote, "full replay") {
			b.Fatalf("replay unexpectedly checkpointed: %q", h.CheckpointNote)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
