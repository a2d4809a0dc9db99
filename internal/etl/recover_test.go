package etl_test

// Crash-recovery and corruption tests for the durable store. These
// live in the external test package because they drive the store
// through internal/faultfs, which itself imports etl for the FS
// interface.

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/faultfs"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
)

// recoverChain builds a small deterministic chain that exercises every
// persisted dimension: actors, posting lists, and all the aggregate
// rollups (adds, asserts, transfers, rewards, state-channel closes).
func recoverChain(t testing.TB, nBlocks int) *chain.Chain {
	t.Helper()
	c := chain.NewChain(chain.DefaultGenesis)
	owners := []string{"own-a", "own-b", "own-c"}
	const nHS = 4
	hs := make([]string, nHS)
	hsOwner := make([]string, nHS)
	hsNonce := make([]int, nHS)
	setup := []chain.Txn{
		&chain.DCCoinbase{Payee: "router-1", AmountDC: 1_000_000_000},
		&chain.OUIRegistration{OUI: 1, Owner: "router-1"},
	}
	for _, o := range owners {
		setup = append(setup,
			&chain.SecurityCoinbase{Payee: o, AmountBones: 1_000 * chain.BonesPerHNT},
			&chain.DCCoinbase{Payee: o, AmountDC: 1_000_000_000})
	}
	for i := range hs {
		hs[i] = fmt.Sprintf("hs-%d", i)
		hsOwner[i] = owners[i%len(owners)]
		setup = append(setup, &chain.AddGateway{Gateway: hs[i], Owner: hsOwner[i], Maker: "maker-x"})
	}
	if _, err := c.AppendBlock(0, setup); err != nil {
		t.Fatalf("setup block: %v", err)
	}
	var scOpen string
	for h := int64(1); int(h) <= nBlocks; h++ {
		txns := []chain.Txn{&chain.Payment{Payer: "own-a", Payee: "own-b", AmountBones: 1}}
		if h%3 == 0 {
			txns = append(txns, &chain.PoCReceipt{
				Challenger: hs[0], Challengee: hs[1],
				Witnesses: []chain.WitnessReport{{Witness: hs[2], Valid: true}},
			})
		}
		if h%4 == 0 {
			txns = append(txns, &chain.Rewards{Epoch: h, Entries: []chain.RewardEntry{
				{Account: hsOwner[int(h)%nHS], Gateway: hs[int(h)%nHS], AmountBones: 5, Kind: chain.RewardChallengee},
				{Account: "own-c", AmountBones: 2, Kind: chain.RewardConsensus},
			}})
		}
		if h%5 == 0 {
			i := int(h) % nHS
			hsNonce[i]++
			cell := h3lite.FromLatLon(geo.Point{Lat: 30 + float64(h), Lon: -100 - float64(h)}, 8)
			txns = append(txns, &chain.AssertLocation{
				Gateway: hs[i], Owner: hsOwner[i], Location: cell, Nonce: hsNonce[i],
			})
		}
		if h%7 == 0 {
			i := int(h) % nHS
			buyer := owners[(int(h)+1)%len(owners)]
			if buyer != hsOwner[i] {
				var amt int64
				if h%14 == 0 {
					amt = 10
				}
				txns = append(txns, &chain.TransferHotspot{
					Gateway: hs[i], Seller: hsOwner[i], Buyer: buyer, AmountBones: amt,
				})
				hsOwner[i] = buyer
			}
		}
		if h%10 == 0 && scOpen == "" {
			scOpen = chain.SCID("router-1", h)
			txns = append(txns, &chain.StateChannelOpen{
				ID: scOpen, Owner: "router-1", OUI: 1, AmountDC: 1000, ExpireWithin: 30,
			})
		} else if h%10 == 5 && scOpen != "" {
			txns = append(txns, &chain.StateChannelClose{
				ID: scOpen, Owner: "router-1",
				Summaries: []chain.SCSummary{{Hotspot: hs[0], Packets: h, DC: 10}},
			})
			scOpen = ""
		}
		if _, err := c.AppendBlock(h, txns); err != nil {
			t.Fatalf("block %d: %v", h, err)
		}
	}
	return c
}

// chainHashes maps height → ordered txn content hashes.
func chainHashes(c *chain.Chain) map[int64][]string {
	out := make(map[int64][]string)
	for _, b := range c.Blocks() {
		hs := make([]string, len(b.Txns))
		for i, t := range b.Txns {
			hs[i] = chain.Hash(t)
		}
		out[b.Height] = hs
	}
	return out
}

func storeHashes(s *etl.Store) map[int64][]string {
	out := make(map[int64][]string)
	s.Scan(etl.All(), etl.Filter{}, func(h int64, t chain.Txn) bool {
		out[h] = append(out[h], chain.Hash(t))
		return true
	})
	return out
}

// requireStoreMatchesChain asserts the store holds exactly the chain's
// content (heights and per-txn hashes), and that the aggregates match
// a fresh re-index.
func requireStoreMatchesChain(t *testing.T, s *etl.Store, c *chain.Chain) {
	t.Helper()
	want, got := chainHashes(c), storeHashes(s)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("store content differs from chain: %d vs %d heights", len(got), len(want))
	}
	if wantAgg, gotAgg := etl.FromChain(c).Aggregates(), s.Aggregates(); !reflect.DeepEqual(wantAgg, gotAgg) {
		t.Fatalf("aggregates differ after recovery:\n got %+v\nwant %+v", gotAgg, wantAgg)
	}
}

func openTest(t *testing.T, dir string, fs etl.FS) *etl.Store {
	t.Helper()
	s, err := etl.Open(dir, etl.Config{SegmentBlocks: 8, FS: fs})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestDurableRoundTrip(t *testing.T) {
	c := recoverChain(t, 30)
	dir := filepath.Join(t.TempDir(), "store")

	s := openTest(t, dir, nil)
	if err := s.BulkLoad(c); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTest(t, dir, nil)
	defer s2.Close()
	requireStoreMatchesChain(t, s2, c)
	h := s2.Health()
	if !h.Durable || len(h.Gaps) != 0 || h.Quarantined != 0 || h.SidecarsRebuilt != 0 {
		t.Errorf("unhealthy reload: %+v", h)
	}
	if st := s2.Stats(); st.Segments == 0 || st.TypePostings == 0 || st.ActorPostings == 0 {
		t.Errorf("indexes not restored: %+v", st)
	}
}

func TestReopenWithPendingTail(t *testing.T) {
	c := recoverChain(t, 13) // 14 blocks: one sealed segment of 8, six pending
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, nil)
	for _, b := range c.Blocks() {
		if err := s.Append(b); err != nil {
			t.Fatalf("append %d: %v", b.Height, err)
		}
	}
	s.Close()

	s2 := openTest(t, dir, nil)
	defer s2.Close()
	requireStoreMatchesChain(t, s2, c)
	if h := s2.Health(); h.WALDepth != 6 || h.PendingBlocks != 6 || h.Segments != 1 {
		t.Errorf("tail not restored through WAL: %+v", h)
	}
}

// TestCrashRecoveryMatrix kills the store at every mutating I/O
// operation of a full ingest and proves Open recovers: no panic, no
// gap, every acknowledged block intact, nothing the chain doesn't
// have. Odd crash points also tear the failing write.
func TestCrashRecoveryMatrix(t *testing.T) {
	c := recoverChain(t, 30)
	want := chainHashes(c)

	// A fault-free probe run bounds the matrix.
	probe := faultfs.New(etl.OSFS{}, faultfs.Config{})
	s := openTest(t, filepath.Join(t.TempDir(), "probe"), probe)
	for _, b := range c.Blocks() {
		if err := s.Append(b); err != nil {
			t.Fatalf("probe append %d: %v", b.Height, err)
		}
	}
	s.Close()
	total := probe.Ops()
	if total < 40 {
		t.Fatalf("probe counted only %d ops; matrix would be vacuous", total)
	}

	for k := 1; k <= total; k++ {
		t.Run(fmt.Sprintf("crash-at-op-%03d", k), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			ffs := faultfs.New(etl.OSFS{}, faultfs.Config{
				Seed: int64(k), FailAtOp: k, Crash: true, TornWrite: k%2 == 1,
			})
			s, err := etl.Open(dir, etl.Config{SegmentBlocks: 8, FS: ffs})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			var acked []int64
			for _, b := range c.Blocks() {
				if err := s.Append(b); err != nil {
					if !errors.Is(err, faultfs.ErrInjected) {
						t.Fatalf("append %d failed with non-injected error: %v", b.Height, err)
					}
					break
				}
				acked = append(acked, b.Height)
			}
			// The process "dies" here; reopen against the real fs.
			s2 := openTest(t, dir, nil)
			defer s2.Close()
			if h := s2.Health(); len(h.Gaps) != 0 {
				t.Fatalf("a pure crash must never report corruption gaps, got %+v", h)
			}
			got := storeHashes(s2)
			for _, h := range acked {
				if !reflect.DeepEqual(got[h], want[h]) {
					t.Fatalf("acked block %d lost or damaged: %v", h, got[h])
				}
			}
			for h, hs := range got {
				if !reflect.DeepEqual(hs, want[h]) {
					t.Fatalf("recovered block %d doesn't match chain", h)
				}
			}
			// The store must remain usable for the rest of the chain.
			for _, b := range c.BlocksFrom(s2.Height()) {
				if err := s2.Append(b); err != nil {
					t.Fatalf("post-recovery append %d: %v", b.Height, err)
				}
			}
			requireStoreMatchesChain(t, s2, c)
		})
	}
}

// listStoreFiles returns the store's data files (segments, sidecars,
// WAL) relative to dir.
func listStoreFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := etl.OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range names {
		if n != "quarantine" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// TestBitFlipMatrix flips one random bit in every store file and
// checks the contract: Open never panics and never silently drops
// data — every chain block is either served intact or inside a
// reported gap — and Repair from the source chain restores the store
// to exactly the chain's content.
func TestBitFlipMatrix(t *testing.T) {
	c := recoverChain(t, 30)
	want := chainHashes(c)
	base := filepath.Join(t.TempDir(), "base")
	s := openTest(t, base, nil)
	for _, b := range c.Blocks() {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	files := listStoreFiles(t, base)
	if len(files) < 7 { // 3 segments + 3 sidecars + wal
		t.Fatalf("expected a populated store, found %v", files)
	}
	for _, name := range files {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				dir := copyStore(t, base)
				ffs := faultfs.New(etl.OSFS{}, faultfs.Config{Seed: seed})
				off, err := ffs.CorruptFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatalf("corrupt: %v", err)
				}
				s2 := openTest(t, dir, nil)
				defer s2.Close()
				// Open is lazy: damage surfaces when a segment is first
				// touched. The scan forces every load, so Health read
				// after it reflects the whole store.
				got := storeHashes(s2)
				health := s2.Health()
				inGap := func(h int64) bool {
					for _, g := range health.Gaps {
						if h >= g.From && (g.To < 0 || h <= g.To) {
							return true
						}
					}
					return false
				}
				for h, hs := range want {
					switch {
					case reflect.DeepEqual(got[h], hs):
					case got[h] == nil && inGap(h):
					default:
						t.Fatalf("bit flip at %s+%d silently lost block %d (health %+v)",
							name, off, h, health)
					}
				}
				for h := range got {
					if want[h] == nil {
						t.Fatalf("recovered block %d the chain never had", h)
					}
				}
				if err := s2.Repair(c); err != nil {
					t.Fatalf("Repair: %v", err)
				}
				if g := s2.Gaps(); len(g) != 0 {
					t.Fatalf("gaps survive repair: %v", g)
				}
				requireStoreMatchesChain(t, s2, c)
			})
		}
	}
}

func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "copy")
	fs := etl.OSFS{}
	if err := fs.MkdirAll(dst); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "quarantine" {
			continue
		}
		data, err := fs.ReadFile(filepath.Join(src, n))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(filepath.Join(dst, n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestSidecarDamageRebuildsWithoutGap pins the asymmetry: sidecar
// damage is locally recoverable (the blocks are intact) and must not
// quarantine the segment.
func TestSidecarDamageRebuildsWithoutGap(t *testing.T) {
	c := recoverChain(t, 20)
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, nil)
	if err := s.BulkLoad(c); err != nil {
		t.Fatal(err)
	}
	s.Close()

	var idx string
	for _, n := range listStoreFiles(t, dir) {
		if filepath.Ext(n) == ".idx" {
			idx = n
			break
		}
	}
	if idx == "" {
		t.Fatal("no sidecar written")
	}
	ffs := faultfs.New(etl.OSFS{}, faultfs.Config{Seed: 7})
	if _, err := ffs.CorruptFile(filepath.Join(dir, idx)); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, nil)
	defer s2.Close()
	s2.Preload() // rebuilds happen at load time under the lazy open
	h := s2.Health()
	if h.SidecarsRebuilt != 1 || h.Quarantined != 0 || len(h.Gaps) != 0 {
		t.Fatalf("sidecar damage mishandled: %+v", h)
	}
	requireStoreMatchesChain(t, s2, c)

	// The rebuild republishes the sidecar, so the next open is clean.
	s3 := openTest(t, dir, nil)
	defer s3.Close()
	s3.Preload()
	if h := s3.Health(); h.SidecarsRebuilt != 0 {
		t.Errorf("rebuilt sidecar was not republished: %+v", h)
	}
}

// TestFollowerRetriesTransientFault injects a single transient write
// failure under a live follower: the backoff loop must absorb it with
// no error and no lost blocks.
func TestFollowerRetriesTransientFault(t *testing.T) {
	c := recoverChain(t, 24)
	dir := filepath.Join(t.TempDir(), "store")
	// Opening a fresh store costs a handful of ops; op 15 lands inside
	// the block-ingest stretch. Crash is off: exactly one op fails.
	ffs := faultfs.New(etl.OSFS{}, faultfs.Config{Seed: 1, FailAtOp: 15})
	s := openTest(t, dir, ffs)
	defer s.Close()

	f := s.FollowChain(c)
	deadline := time.Now().Add(10 * time.Second)
	for s.Height() < c.Height() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("follower surfaced a transient fault: %v", err)
	}
	if ffs.Ops() < 15 {
		t.Fatalf("fault never fired (%d ops)", ffs.Ops())
	}
	requireStoreMatchesChain(t, s, c)
	if h := s.Health(); h.LastError != "" {
		t.Errorf("health still dirty after retry: %+v", h)
	}
}

// TestFollowerSurfacesPersistentFault: when the disk stays broken the
// retries exhaust and the error is visible on Err, not swallowed.
func TestFollowerSurfacesPersistentFault(t *testing.T) {
	c := recoverChain(t, 10)
	dir := filepath.Join(t.TempDir(), "store")
	ffs := faultfs.New(etl.OSFS{}, faultfs.Config{Seed: 1, FailAtOp: 9, Crash: true})
	s := openTest(t, dir, ffs)
	f := s.FollowChain(c)
	deadline := time.Now().Add(10 * time.Second)
	for f.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	err := f.Close()
	if err == nil || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Err = %v, want injected persist error", err)
	}
	if h := s.Health(); h.LastError == "" {
		t.Errorf("persistent fault invisible in health: %+v", h)
	}
}

// TestFollowerCloseRacesProducer closes the follower while the
// producer is mid-stream: no deadlock, no error, and everything the
// store holds matches the chain (run under -race).
func TestFollowerCloseRacesProducer(t *testing.T) {
	for round := 0; round < 5; round++ {
		c := chain.NewChain(chain.DefaultGenesis)
		s := etl.New(etl.Config{SegmentBlocks: 4})
		f := s.FollowChain(c)
		prodDone := make(chan error, 1)
		go func() {
			if _, err := c.AppendBlock(0, []chain.Txn{
				&chain.SecurityCoinbase{Payee: "a", AmountBones: 1_000_000},
			}); err != nil {
				prodDone <- err
				return
			}
			for h := int64(1); h < 60; h++ {
				if _, err := c.AppendBlock(h, []chain.Txn{
					&chain.Payment{Payer: "a", Payee: "b", AmountBones: 1},
				}); err != nil {
					prodDone <- err
					return
				}
			}
			prodDone <- nil
		}()
		if round%2 == 1 {
			time.Sleep(time.Duration(round) * 100 * time.Microsecond)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := <-prodDone; err != nil {
			t.Fatalf("producer: %v", err)
		}
		want, got := chainHashes(c), storeHashes(s)
		for h, hs := range got {
			if !reflect.DeepEqual(hs, want[h]) {
				t.Fatalf("store block %d differs from chain", h)
			}
		}
	}
}

// TestAppendNonContiguous pins the explicit-error contract: a stale
// height is ErrStaleHeight and mutates nothing; a forward gap is
// accepted (the chain's heights may be sparse).
func TestAppendNonContiguous(t *testing.T) {
	s := etl.New(etl.Config{})
	if err := s.Append(&chain.Block{Height: 5, Timestamp: chain.DefaultGenesis}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	for _, h := range []int64{5, 4, 0} {
		err := s.Append(&chain.Block{Height: h, Timestamp: chain.DefaultGenesis})
		if !errors.Is(err, etl.ErrStaleHeight) {
			t.Errorf("Append(%d) = %v, want ErrStaleHeight", h, err)
		}
	}
	if after := s.Stats(); !reflect.DeepEqual(before, after) {
		t.Errorf("rejected appends mutated the store: %+v → %+v", before, after)
	}
	if err := s.Append(&chain.Block{Height: 9, Timestamp: chain.DefaultGenesis}); err != nil {
		t.Errorf("sparse forward height rejected: %v", err)
	}
}

// TestPreloadCrashReopen proves the integrity probe a supervised
// restart runs (Open + Preload) is crash-safe: Preload performs zero
// mutating I/O, so a process dying anywhere inside it — after a crash
// already abandoned one store handle without Close — leaves nothing
// half-written, and the next reopen loads the full content cleanly.
func TestPreloadCrashReopen(t *testing.T) {
	c := recoverChain(t, 30)
	dir := filepath.Join(t.TempDir(), "store")

	// First incarnation ingests and "crashes": no Close, the handle is
	// simply abandoned. The WAL has fsynced every append.
	fs := faultfs.New(etl.OSFS{}, faultfs.Config{})
	s1 := openTest(t, dir, fs)
	for _, b := range c.Blocks() {
		if err := s1.Append(b); err != nil {
			t.Fatalf("append %d: %v", b.Height, err)
		}
	}

	// Second incarnation is the restart probe. Arm a crash fault for
	// the very next mutating op: if Preload (or the queries after it)
	// tried to write anything, the injected fault would surface, and
	// the op counter would move.
	s2 := openTest(t, dir, fs)
	ops := fs.Ops()
	fs.FailAt(1)
	s2.Preload()
	if len(s2.Gaps()) != 0 {
		t.Fatalf("clean store preloaded with gaps: %v", s2.Gaps())
	}
	requireStoreMatchesChain(t, s2, c)
	if got := fs.Ops(); got != ops {
		t.Fatalf("Preload + reads performed %d mutating ops, want 0", got-ops)
	}

	// Third incarnation: the preloading store also died without Close.
	// The reopen must still see the complete, gap-free content.
	fs.Heal()
	s3 := openTest(t, dir, fs)
	defer s3.Close()
	s3.Preload()
	if h := s3.Health(); len(h.Gaps) != 0 || h.Quarantined != 0 {
		t.Fatalf("reopen after abandoned preload unhealthy: %+v", h)
	}
	requireStoreMatchesChain(t, s3, c)
}
