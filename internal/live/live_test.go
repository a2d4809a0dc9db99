package live_test

// Prefix-equivalence suite: the live Study folded block-by-block must
// be bit-identical (reflect.DeepEqual, unexported fields included) to
// a batch measurement of the same chain prefix, at every height, in
// every delivery mode — synchronous ApplyBlock, a store tail, and a
// store tail surviving a transient disk fault mid-ingest. Run under
// -race via `make live-smoke`.

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/core"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/faultfs"
	"peoplesnet/internal/live"
	"peoplesnet/internal/simnet"
)

// smallWorld generates a reduced-timeline world: one block per
// simulated day, every transaction family exercised.
func smallWorld(t testing.TB, days int, seed uint64) *simnet.Result {
	t.Helper()
	cfg := simnet.TestConfig(seed)
	cfg.Days = days
	w, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatalf("generate world: %v", err)
	}
	return w
}

// batchViews is the batch-path measurement of one chain prefix: a
// fresh store over blocks ≤ h and the six fold-form analyses run the
// way peoplesnet.Measure runs them.
type batchViews struct {
	Summary   core.ChainSummary
	Moves     core.MoveAnalysis
	Growth    core.GrowthAnalysis
	Ownership core.OwnershipAnalysis
	Resale    core.ResaleAnalysis
	Traffic   core.TrafficAnalysis
}

// The analyses read only transactions, so batchPrefix also replays
// the prefix into its own ledger, the independent side for the three
// figures once read from one: bulk owners' HNT balances, the hotspot
// count under the resale fraction, and the OUI registry behind the
// router list and the Console share.
func batchPrefix(t testing.TB, blocks []*chain.Block, h int64, meta map[string]core.HotspotMeta, pw float64, topN int) batchViews {
	t.Helper()
	s := etl.New(etl.Config{})
	l := chain.NewLedger()
	var closes, consoleCloses int64
	closeOwners := make(map[string]int64)
	for _, b := range blocks {
		if b.Height > h {
			break
		}
		if err := s.Append(b); err != nil {
			t.Fatalf("append block %d: %v", b.Height, err)
		}
		for i, tx := range b.Txns {
			if err := l.ApplyTxn(tx, b.Height); err != nil {
				t.Fatalf("replay block %d txn %d (%s): %v", b.Height, i, tx.TxnType(), err)
			}
			if cl, ok := tx.(*chain.StateChannelClose); ok {
				closes++
				closeOwners[cl.Owner]++
			}
		}
	}
	d := &core.Dataset{Chain: s.View(), Meta: meta, PoCWeight: pw}
	v := batchViews{
		Summary:   d.SummarizeChain(),
		Moves:     d.AnalyzeMoves(),
		Growth:    d.AnalyzeGrowth(),
		Ownership: d.AnalyzeOwnership(),
		Resale:    d.AnalyzeResale(topN),
		Traffic:   d.AnalyzeTraffic(),
	}

	for _, p := range v.Ownership.Bulk {
		if want := l.GetAccount(p.Address).HNTBones; p.HNTBones != want {
			t.Fatalf("height %d: bulk owner %s holds %d bones, ledger %d", h, p.Address, p.HNTBones, want)
		}
	}
	hotspots := l.HotspotCount()
	if v.Growth.Total != int64(hotspots) {
		t.Fatalf("height %d: growth total %d (the live resale denominator), ledger hotspots %d", h, v.Growth.Total, hotspots)
	}
	var frac float64
	if hotspots > 0 {
		frac = float64(v.Resale.TransferredHotspots) / float64(hotspots)
	}
	if v.Resale.TransferredFrac != frac {
		t.Fatalf("height %d: transferred fraction %v, want %v over %d ledger hotspots", h, v.Resale.TransferredFrac, frac, hotspots)
	}

	var want core.RouterAnalysis
	ouiOf := make(map[string]uint32)
	for _, o := range l.OUIs() {
		want.OUIs++
		if o.OUI <= 2 {
			want.ConsoleOUIs++
			want.ConsoleOwner = o.Owner
		} else {
			want.ThirdPartyOUI = append(want.ThirdPartyOUI, o.OUI)
		}
		if cur, ok := ouiOf[o.Owner]; !ok || o.OUI < cur {
			ouiOf[o.Owner] = o.OUI
		}
	}
	if got := d.AnalyzeRouters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("height %d: routers %+v, ledger OUIs give %+v", h, got, want)
	}
	for owner, n := range closeOwners {
		if oui := ouiOf[owner]; oui == 1 || oui == 2 {
			consoleCloses += n
		}
	}
	var share float64
	if closes > 0 {
		share = float64(consoleCloses) / float64(closes)
	}
	if v.Traffic.ConsoleShare != share {
		t.Fatalf("height %d: console share %v, ledger OUIs give %v", h, v.Traffic.ConsoleShare, share)
	}
	return v
}

// requireEqual deep-compares the live snapshot with the batch views,
// reporting the first diverging analysis by name.
func requireEqual(t testing.TB, h int64, sn live.Snapshot, want batchViews) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want interface{}
	}{
		{"Summary", sn.Summary, want.Summary},
		{"Moves", sn.Moves, want.Moves},
		{"Growth", sn.Growth, want.Growth},
		{"Ownership", sn.Ownership, want.Ownership},
		{"Resale", sn.Resale, want.Resale},
		{"Traffic", sn.Traffic, want.Traffic},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("height %d: live %s diverges from batch\n live: %+v\nbatch: %+v", h, c.name, c.got, c.want)
		}
	}
}

// TestLiveStudyPrefixEquivalence replays a world block-by-block into
// a detached Study and pins Snapshot() bit-identical to the batch
// measurement of the same prefix at every single height, including
// the empty prefix.
func TestLiveStudyPrefixEquivalence(t *testing.T) {
	w := smallWorld(t, 120, 11)
	md := core.FromSimulation(w)
	blocks := w.Chain.Blocks()

	st := live.New(live.Options{Meta: md.Meta, PoCWeight: md.PoCWeight})
	requireEqual(t, -1, st.Snapshot(), batchPrefix(t, blocks, -1, md.Meta, md.PoCWeight, 200))
	for _, b := range blocks {
		st.ApplyBlock(b)
		sn := st.Snapshot()
		if sn.Height != b.Height {
			t.Fatalf("snapshot height = %d, want %d", sn.Height, b.Height)
		}
		requireEqual(t, b.Height, sn, batchPrefix(t, blocks, b.Height, md.Meta, md.PoCWeight, 200))
	}
	if err := st.Err(); err != nil {
		t.Fatalf("ledger replica diverged: %v", err)
	}
}

// TestLiveStudyMatchesMeasure pins the live snapshot at the chain tip
// against the real public batch path — peoplesnet.Measure over the
// same world, whose ledger is the simulator's original rather than a
// replica — for the six live-maintained analyses.
func TestLiveStudyMatchesMeasure(t *testing.T) {
	w := smallWorld(t, 150, 3)
	md := core.FromSimulation(w)

	st := live.New(live.Options{Meta: md.Meta, PoCWeight: md.PoCWeight})
	for _, b := range w.Chain.Blocks() {
		st.ApplyBlock(b)
	}
	sn := st.Snapshot()
	batch := peoplesnet.Measure(w)
	requireEqual(t, sn.Height, sn, batchViews{
		Summary:   batch.Summary,
		Moves:     batch.Moves,
		Growth:    batch.Growth,
		Ownership: batch.Ownership,
		Resale:    batch.Resale,
		Traffic:   batch.Traffic,
	})
	if err := st.Err(); err != nil {
		t.Fatalf("ledger replica diverged from simulator ledger: %v", err)
	}
	if sn.ApplyErrs != 0 {
		t.Fatalf("replica rejected %d transactions", sn.ApplyErrs)
	}
}

// waitHeight polls until the study has folded up to h or the deadline
// passes.
func waitHeight(st *live.Study, h int64, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for st.Height() < h {
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestLiveStudyFollowsStore attaches a Study to a store tail while
// the store is bulk-loaded underneath it, then checks convergence and
// equivalence at the tip.
func TestLiveStudyFollowsStore(t *testing.T) {
	w := smallWorld(t, 100, 5)
	md := core.FromSimulation(w)

	s := etl.New(etl.Config{})
	st := live.Attach(s, live.Options{Meta: md.Meta, PoCWeight: md.PoCWeight})
	defer st.Close()
	if err := s.BulkLoad(w.Chain); err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	if !waitHeight(st, w.Chain.Height(), 30*time.Second) {
		t.Fatalf("study stuck at height %d, store tip %d", st.Height(), s.Height())
	}
	sn := st.Snapshot()
	if sn.LagBlocks != 0 || sn.StoreTip != w.Chain.Height() {
		t.Fatalf("staleness fields: lag=%d tip=%d, want 0 and %d", sn.LagBlocks, sn.StoreTip, w.Chain.Height())
	}
	requireEqual(t, sn.Height, sn, batchPrefix(t, w.Chain.Blocks(), w.Chain.Height(), md.Meta, md.PoCWeight, 200))
}

// TestLiveStudyFollowerRetry injects one transient disk fault under a
// durable store being fed by a chain Follower while a live Study
// tails it: the Follower's retry must be invisible to the views — no
// lost or double-counted blocks, snapshot still bit-identical to
// batch.
func TestLiveStudyFollowerRetry(t *testing.T) {
	w := smallWorld(t, 80, 7)
	md := core.FromSimulation(w)
	dir := filepath.Join(t.TempDir(), "store")
	// Opening a fresh store costs a handful of ops; op 15 lands inside
	// the block-ingest stretch. Crash is off: exactly one op fails.
	ffs := faultfs.New(etl.OSFS{}, faultfs.Config{Seed: 1, FailAtOp: 15})
	s, err := etl.Open(dir, etl.Config{SegmentBlocks: 8, FS: ffs})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer s.Close()

	st := live.Attach(s, live.Options{Meta: md.Meta, PoCWeight: md.PoCWeight})
	defer st.Close()
	f := s.FollowChain(w.Chain)
	if !waitHeight(st, w.Chain.Height(), 30*time.Second) {
		t.Fatalf("study stuck at height %d, store tip %d", st.Height(), s.Height())
	}
	if err := f.Close(); err != nil {
		t.Fatalf("follower surfaced a transient fault: %v", err)
	}
	if ffs.Ops() < 15 {
		t.Fatalf("fault never fired (%d ops)", ffs.Ops())
	}
	sn := st.Snapshot()
	if sn.Blocks != int64(len(w.Chain.Blocks())) {
		t.Fatalf("folded %d blocks, chain has %d", sn.Blocks, len(w.Chain.Blocks()))
	}
	requireEqual(t, sn.Height, sn, batchPrefix(t, w.Chain.Blocks(), w.Chain.Height(), md.Meta, md.PoCWeight, 200))
}

// TestLiveStudyWindowBruteForce replays a world and, at every height,
// checks the trailing-30-day window totals against a brute-force
// recount of the relevant transactions over the same prefix — the
// windowed view the batch path cannot express without a rescan.
func TestLiveStudyWindowBruteForce(t *testing.T) {
	cfg := simnet.TestConfig(9)
	cfg.Days = 140
	cfg.ResaleStartDay = 60 // default 500 would leave the transfer window empty
	w, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatalf("generate world: %v", err)
	}
	const days = 30
	st := live.New(live.Options{WindowDays: days})

	var adds, moves, xfers []int64 // event days, in chain order
	locEvents := make(map[string]int)
	count := func(evs []int64, tipDay int64) float64 {
		n := 0.0
		for _, d := range evs {
			if d > tipDay-days && d <= tipDay {
				n++
			}
		}
		return n
	}
	for _, b := range w.Chain.Blocks() {
		day := b.Height / chain.BlocksPerDay
		for _, txn := range b.Txns {
			switch v := txn.(type) {
			case *chain.AddGateway:
				adds = append(adds, day)
				if v.Location != 0 {
					locEvents[v.Gateway]++
				}
			case *chain.AssertLocation:
				if locEvents[v.Gateway] > 0 {
					moves = append(moves, day)
				}
				locEvents[v.Gateway]++
			case *chain.TransferHotspot:
				xfers = append(xfers, day)
			default:
			}
		}
		st.ApplyBlock(b)
		win := st.Snapshot().Window
		if win.TipDay != day || win.Days != days {
			t.Fatalf("window meta = (tip %d, %d days), want (%d, %d)", win.TipDay, win.Days, day, days)
		}
		if got, want := win.Adds, count(adds, day); got != want {
			t.Fatalf("day %d: window adds = %v, brute force = %v", day, got, want)
		}
		if got, want := win.Moves, count(moves, day); got != want {
			t.Fatalf("day %d: window moves = %v, brute force = %v", day, got, want)
		}
		if got, want := win.Transfers, count(xfers, day); got != want {
			t.Fatalf("day %d: window transfers = %v, brute force = %v", day, got, want)
		}
	}
	if len(adds) == 0 || len(moves) == 0 || len(xfers) == 0 {
		t.Fatalf("world exercised nothing: %d adds, %d moves, %d transfers", len(adds), len(moves), len(xfers))
	}
}

// TestLiveStudyCloseUnblocks pins Close() semantics: it must unblock
// the tail goroutine promptly and be idempotent.
func TestLiveStudyCloseUnblocks(t *testing.T) {
	s := etl.New(etl.Config{})
	st := live.Attach(s, live.Options{})
	done := make(chan struct{})
	go func() {
		st.Close()
		st.Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not unblock the tail goroutine")
	}
}

// TestLiveStudyHourlyChallenges: a store with no source chain, fed
// blocks in which one challenger challenges in hourly blocks 60 heights
// apart (as the simulator generates them), replays into the study's
// ledger replica without rejections: every ledger validates with the
// chain package's one PoC challenge interval.
func TestLiveStudyHourlyChallenges(t *testing.T) {
	s := etl.New(etl.Config{})
	for _, b := range []*chain.Block{
		{Height: 2, Txns: []chain.Txn{&chain.AddGateway{Gateway: "hs1", Owner: "w"}}},
		{Height: 62, Txns: []chain.Txn{&chain.PoCRequest{Challenger: "hs1", SecretHash: "a"}}},
		{Height: 122, Txns: []chain.Txn{&chain.PoCRequest{Challenger: "hs1", SecretHash: "b"}}},
	} {
		if err := s.Append(b); err != nil {
			t.Fatalf("append block %d: %v", b.Height, err)
		}
	}
	st := live.Attach(s, live.Options{})
	defer st.Close()
	if !waitHeight(st, s.Height(), 10*time.Second) {
		t.Fatalf("study stuck at height %d, store at %d", st.Height(), s.Height())
	}
	if sn := st.Snapshot(); sn.ApplyErrs != 0 {
		t.Fatalf("replica rejected %d txns: %v", sn.ApplyErrs, st.Err())
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveStudyReportsRejectedTxn: a transaction the replica rejects —
// here a transfer of a hotspot that was never added — is counted in
// ApplyErrs, and Err names its height and type. The folds go on: the
// next block still lands.
func TestLiveStudyReportsRejectedTxn(t *testing.T) {
	st := live.New(live.Options{})
	st.ApplyBlock(&chain.Block{Height: 1, Txns: []chain.Txn{&chain.AddGateway{Gateway: "hs1", Owner: "w"}}})
	st.ApplyBlock(&chain.Block{Height: 7, Txns: []chain.Txn{&chain.TransferHotspot{Gateway: "ghost", Seller: "w", Buyer: "v"}}})
	st.ApplyBlock(&chain.Block{Height: 9, Txns: []chain.Txn{&chain.AddGateway{Gateway: "hs2", Owner: "v"}}})
	sn := st.Snapshot()
	if sn.ApplyErrs != 1 {
		t.Fatalf("ApplyErrs = %d, want 1", sn.ApplyErrs)
	}
	if sn.Height != 9 || sn.Ownership.Hotspots != 2 {
		t.Fatalf("folded to height %d with %d hotspots, want 9 and 2", sn.Height, sn.Ownership.Hotspots)
	}
	err := st.Err()
	if err == nil {
		t.Fatal("Err is nil after a rejected transfer")
	}
	for _, want := range []string{"block 7", "transfer_hotspot", "ghost"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Err %q does not name %q", err, want)
		}
	}
}

// TestSnapshotBytesPerHotspot bounds the heap a Snapshot allocates per
// registered hotspot on a full SmallWorld. The ownership fold profiles
// only bulk owners and no view re-derives what it settled at an
// earlier snapshot, so a snapshot copies the per-close series and the
// move CDFs once and allocates nothing per hotspot. It grows with the
// answer, not the fleet: ~115 bytes per hotspot here and under 20 at
// paper scale, against ~220 when each snapshot walked the replica
// ledger's hotspots and ~560 when that walk deep-copied every record.
func TestSnapshotBytesPerHotspot(t *testing.T) {
	w := smallWorld(t, simnet.TestConfig(1).Days, 1)
	md := core.FromSimulation(w)
	st := live.New(live.Options{Meta: md.Meta, PoCWeight: md.PoCWeight})
	for _, b := range w.Chain.Blocks() {
		st.ApplyBlock(b)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var sn live.Snapshot
	for i := 0; i < runs; i++ {
		sn = st.Snapshot()
	}
	runtime.ReadMemStats(&after)
	perHotspot := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(sn.Ownership.Hotspots)
	t.Logf("%.0f bytes per hotspot per snapshot (%d hotspots)", perHotspot, sn.Ownership.Hotspots)
	if perHotspot > 200 {
		t.Fatalf("snapshot allocates %.0f bytes per hotspot, bound 200", perHotspot)
	}
}
