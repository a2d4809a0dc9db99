package etl

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
)

// worldChain builds a small deterministic chain exercising every
// indexed dimension: gateways with owners, location asserts, payments,
// PoC, rewards (multi-entry), transfers, and state channels.
func worldChain(t testing.TB, nBlocks int) *chain.Chain {
	t.Helper()
	c := chain.NewChain(chain.DefaultGenesis)

	owners := []string{"owner-a", "owner-b", "owner-c"}
	const nHS = 4
	hs := make([]string, nHS)
	hsOwner := make([]string, nHS)
	hsNonce := make([]int, nHS)
	for i := range hs {
		hs[i] = fmt.Sprintf("hs-%d", i)
		hsOwner[i] = owners[i%len(owners)]
	}

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
		setup = append(setup, &chain.AddGateway{Gateway: hs[i], Owner: hsOwner[i], Maker: "maker-x"})
	}
	if _, err := c.AppendBlock(0, setup); err != nil {
		t.Fatalf("setup block: %v", err)
	}

	cell := func(i int) h3lite.Cell {
		return h3lite.FromLatLon(geo.Point{Lat: 30 + float64(i), Lon: -100 - float64(i)}, 8)
	}
	var scOpen string
	for h := int64(1); int(h) <= nBlocks; h++ {
		var txns []chain.Txn
		txns = append(txns, &chain.Payment{Payer: "owner-a", Payee: "owner-b", AmountBones: 1})
		if h%3 == 0 {
			txns = append(txns, &chain.PoCReceipt{
				Challenger: hs[0],
				Challengee: hs[1],
				Witnesses:  []chain.WitnessReport{{Witness: hs[2], Valid: true}},
			})
		}
		if h%4 == 0 {
			txns = append(txns, &chain.Rewards{Epoch: h, Entries: []chain.RewardEntry{
				{Account: hsOwner[int(h)%nHS], Gateway: hs[int(h)%nHS], AmountBones: 5, Kind: chain.RewardChallengee},
				{Account: "owner-c", AmountBones: 2, Kind: chain.RewardConsensus},
			}})
		}
		if h%5 == 0 {
			i := int(h) % nHS
			hsNonce[i]++
			txns = append(txns, &chain.AssertLocation{
				Gateway: hs[i], Owner: hsOwner[i], Location: cell(int(h)), Nonce: hsNonce[i],
			})
		}
		if h%7 == 0 {
			i := int(h) % nHS
			seller := hsOwner[i]
			buyer := owners[(int(h)+1)%len(owners)]
			if buyer != seller {
				var amt int64
				if h%14 == 0 {
					amt = 10
				}
				txns = append(txns, &chain.TransferHotspot{
					Gateway: hs[i], Seller: seller, Buyer: buyer, AmountBones: amt,
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

type txnRef struct {
	height int64
	hash   string
}

func collectChain(c *chain.Chain) []txnRef {
	var out []txnRef
	c.Scan(func(h int64, t chain.Txn) bool {
		out = append(out, txnRef{h, chain.Hash(t)})
		return true
	})
	return out
}

func collectStore(s *Store, r Range, f Filter) []txnRef {
	var out []txnRef
	s.Scan(r, f, func(h int64, t chain.Txn) bool {
		out = append(out, txnRef{h, chain.Hash(t)})
		return true
	})
	return out
}

func TestBulkLoadMatchesChain(t *testing.T) {
	c := worldChain(t, 120)
	s := New(Config{SegmentBlocks: 16})
	if err := s.BulkLoad(c); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}

	if got, want := s.Height(), c.Height(); got != want {
		t.Errorf("Height = %d, want %d", got, want)
	}
	if got, want := s.FirstHeight(), c.FirstHeight(); got != want {
		t.Errorf("FirstHeight = %d, want %d", got, want)
	}
	if got, want := s.TxnCount(), c.TxnCount(); got != want {
		t.Errorf("TxnCount = %d, want %d", got, want)
	}
	if got, want := s.TxnMix(), c.TxnMix(); !reflect.DeepEqual(got, want) {
		t.Errorf("TxnMix = %v, want %v", got, want)
	}
	if s.Ledger() != c.Ledger() {
		t.Error("store did not adopt the chain's ledger")
	}
	if got, want := collectStore(s, All(), Filter{}), collectChain(c); !reflect.DeepEqual(got, want) {
		t.Errorf("full scan: %d txns, want %d (or order differs)", len(got), len(want))
	}

	st := s.Stats()
	// 121 blocks at 16 per segment: 7 full + 1 sealed partial.
	if st.Segments != 8 {
		t.Errorf("Segments = %d, want 8", st.Segments)
	}
	if st.PendingBlocks != 0 {
		t.Errorf("PendingBlocks = %d, want 0 after BulkLoad", st.PendingBlocks)
	}
	if st.Blocks != 121 {
		t.Errorf("Blocks = %d, want 121", st.Blocks)
	}
	segs := s.Segments()
	for i := 1; i < len(segs); i++ {
		if segs[i].FromHeight <= segs[i-1].ToHeight {
			t.Errorf("segments overlap: %+v then %+v", segs[i-1], segs[i])
		}
	}
}

func TestScanTypeMatchesChain(t *testing.T) {
	c := worldChain(t, 120)
	s := FromChain(c)
	v := s.View()
	for tt := range c.TxnMix() {
		var want, got []txnRef
		c.ScanType(tt, func(h int64, t chain.Txn) bool {
			want = append(want, txnRef{h, chain.Hash(t)})
			return true
		})
		v.ScanType(tt, func(h int64, t chain.Txn) bool {
			got = append(got, txnRef{h, chain.Hash(t)})
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ScanType(%s): %d txns, want %d (or order differs)", tt, len(got), len(want))
		}
	}
}

// TestScanActorMatchesChain checks the actor filter — per-actor
// postings merged with the shared rewards list — against a raw chain
// scan with the same predicate.
func TestScanActorMatchesChain(t *testing.T) {
	c := worldChain(t, 120)
	s := New(Config{SegmentBlocks: 16})
	if err := s.BulkLoad(c); err != nil {
		t.Fatal(err)
	}
	for _, actor := range []string{"owner-a", "owner-c", "hs-0", "hs-2", "router-1", "nobody"} {
		var want []txnRef
		c.Scan(func(h int64, t chain.Txn) bool {
			if mentionsActor(t, actor) {
				want = append(want, txnRef{h, chain.Hash(t)})
			}
			return true
		})
		got := collectStore(s, All(), Filter{Actors: []string{actor}})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Scan(actor %s): %d txns, want %d (or order differs)", actor, len(got), len(want))
		}
	}
}

func TestScanRangeAndFilters(t *testing.T) {
	c := worldChain(t, 120)
	s := New(Config{SegmentBlocks: 16})
	if err := s.BulkLoad(c); err != nil {
		t.Fatal(err)
	}

	count := func(from, to int64, f Filter) (n int) {
		s.Scan(Range{from, to}, f, func(int64, chain.Txn) bool { n++; return true })
		return
	}
	manual := func(from, to int64, match func(chain.Txn) bool) (n int) {
		c.Scan(func(h int64, t chain.Txn) bool {
			if h >= from && h <= to && match(t) {
				n++
			}
			return true
		})
		return
	}

	if got, want := count(20, 50, Filter{}), manual(20, 50, func(chain.Txn) bool { return true }); got != want {
		t.Errorf("range [20,50]: %d, want %d", got, want)
	}
	pay := Filter{Types: []chain.TxnType{chain.TxnPayment}}
	if got, want := count(20, 50, pay), manual(20, 50, func(t chain.Txn) bool { return t.TxnType() == chain.TxnPayment }); got != want {
		t.Errorf("payments in [20,50]: %d, want %d", got, want)
	}
	both := Filter{Types: []chain.TxnType{chain.TxnAssertLocation}, Actors: []string{"hs-0"}}
	if got, want := count(0, 120, both), manual(0, 120, func(t chain.Txn) bool {
		return t.TxnType() == chain.TxnAssertLocation && mentionsActor(t, "hs-0")
	}); got != want {
		t.Errorf("asserts by hs-0: %d, want %d", got, want)
	}
	// A repeated type counts once; a value past every TxnType names no
	// type, so it adds nothing beside a real one and alone — with or
	// without actors — matches nothing.
	payTwice := Filter{Types: []chain.TxnType{chain.TxnPayment, chain.TxnPayment, 64}}
	if got, want := count(20, 50, payTwice), count(20, 50, pay); got != want {
		t.Errorf("payments listed twice plus type 64 in [20,50]: %d, want %d", got, want)
	}
	for _, f := range []Filter{
		{Types: []chain.TxnType{64}},
		{Types: []chain.TxnType{99}, Actors: []string{"hs-0"}},
	} {
		if got := count(0, 120, f); got != 0 {
			t.Errorf("Scan(%+v) matched %d txns, want 0", f, got)
		}
	}

	// Early stop.
	n := 0
	s.Scan(All(), Filter{}, func(int64, chain.Txn) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d txns, want 3", n)
	}
}

func TestAggregatesMatchRecompute(t *testing.T) {
	c := worldChain(t, 120)
	s := FromChain(c)
	agg := s.Aggregates()

	want := Aggregates{
		Mix:                 c.TxnMix(),
		AddsPerDay:          map[int64]int64{},
		AssertsPerGateway:   map[string]int64{},
		TransfersPerGateway: map[string]int64{},
	}
	c.Scan(func(h int64, t chain.Txn) bool {
		switch v := t.(type) {
		case *chain.AddGateway:
			want.AddsPerDay[h/chain.BlocksPerDay]++
		case *chain.AssertLocation:
			want.AssertsPerGateway[v.Gateway]++
		case *chain.TransferHotspot:
			want.Transfers++
			want.TransfersPerGateway[v.Gateway]++
			if v.AmountBones == 0 {
				want.ZeroHNTTransfers++
			}
		case *chain.StateChannelClose:
			pkts := v.TotalPackets()
			want.Closes = append(want.Closes, ClosePoint{Height: h, Packets: pkts})
			want.TotalPackets += pkts
		}
		return true
	})
	if !reflect.DeepEqual(agg, want) {
		t.Errorf("Aggregates mismatch:\n got %+v\nwant %+v", agg, want)
	}
	if want.Transfers == 0 || want.TotalPackets == 0 || len(want.AssertsPerGateway) == 0 {
		t.Error("world chain exercised no transfers/closes/asserts; test is vacuous")
	}
}

func TestIncrementalBulkLoad(t *testing.T) {
	c := worldChain(t, 50)
	s := New(Config{SegmentBlocks: 16})
	if err := s.BulkLoad(c); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()

	for h := int64(51); h <= 90; h++ {
		if _, err := c.AppendBlock(h, []chain.Txn{
			&chain.Payment{Payer: "owner-b", Payee: "owner-c", AmountBones: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.BulkLoad(c); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Blocks != before.Blocks+40 {
		t.Errorf("incremental load: %d blocks, want %d", after.Blocks, before.Blocks+40)
	}
	if got, want := collectStore(s, All(), Filter{}), collectChain(c); !reflect.DeepEqual(got, want) {
		t.Errorf("after incremental load: %d txns, want %d", len(got), len(want))
	}
}

func TestAppendRejectsStaleHeight(t *testing.T) {
	s := New(Config{})
	b := &chain.Block{Height: 5, Timestamp: chain.DefaultGenesis}
	if err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&chain.Block{Height: 5}); err == nil {
		t.Error("duplicate height accepted")
	}
	if err := s.Append(&chain.Block{Height: 3}); err == nil {
		t.Error("lower height accepted")
	}
}

func TestFollowTail(t *testing.T) {
	c := worldChain(t, 40)
	s := New(Config{SegmentBlocks: 16})
	if err := s.BulkLoad(c); err != nil {
		t.Fatal(err)
	}

	tail := s.Follow(-1)
	var heights []int64
	for i := 0; i < 41; i++ {
		b, ok := tail.Next()
		if !ok {
			t.Fatal("tail closed during replay")
		}
		heights = append(heights, b.Height)
	}
	for i := 1; i < len(heights); i++ {
		if heights[i] <= heights[i-1] {
			t.Fatalf("tail heights not increasing: %v", heights)
		}
	}

	// Next blocks until the store grows.
	got := make(chan int64, 1)
	go func() {
		if b, ok := tail.Next(); ok {
			got <- b.Height
		}
		close(got)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Append(&chain.Block{Height: 41, Timestamp: c.TimeOf(41)}); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-got:
		if h != 41 {
			t.Errorf("tail delivered height %d, want 41", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tail did not wake on append")
	}

	// Close unblocks a pending Next.
	done := make(chan bool, 1)
	go func() {
		_, ok := tail.Next()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	tail.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Next returned a block after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Next")
	}
}

// TestFollowChainLive is the acceptance race test: a producer appends
// blocks to a live chain while a follower ingests them and four query
// workers hammer the store concurrently.
func TestFollowChainLive(t *testing.T) {
	c := worldChain(t, 10)
	s := New(Config{SegmentBlocks: 8})
	f := s.FollowChain(c)

	const extra = 200
	var producer sync.WaitGroup
	producer.Add(1)
	go func() {
		defer producer.Done()
		for h := int64(11); h <= 10+extra; h++ {
			txns := []chain.Txn{&chain.Payment{Payer: "owner-a", Payee: "owner-c", AmountBones: 1}}
			if h%4 == 0 {
				txns = append(txns, &chain.Rewards{Epoch: h, Entries: []chain.RewardEntry{
					{Account: "owner-b", AmountBones: 3, Kind: chain.RewardConsensus},
				}})
			}
			if h%9 == 0 {
				txns = append(txns, &chain.AddGateway{
					Gateway: fmt.Sprintf("live-hs-%d", h), Owner: "owner-a",
				})
			}
			if _, err := c.AppendBlock(h, txns); err != nil {
				t.Errorf("producer: %v", err)
				return
			}
		}
	}()

	stop := make(chan struct{})
	var queries sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		queries.Add(1)
		go func() {
			defer queries.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch w {
				case 0:
					s.TxnMix()
					s.Aggregates()
				case 1:
					s.Scan(Range{0, 50}, Filter{Types: []chain.TxnType{chain.TxnPayment}},
						func(int64, chain.Txn) bool { return true })
				case 2:
					s.Scan(All(), Filter{Actors: []string{"owner-a"}},
						func(int64, chain.Txn) bool { return true })
				case 3:
					s.Stats()
					s.Segments()
					s.BlockAt(s.Height() / 2)
				}
			}
		}()
	}

	producer.Wait()
	if err := f.Close(); err != nil {
		t.Fatalf("follower: %v", err)
	}
	close(stop)
	queries.Wait()

	if got, want := s.Height(), c.Height(); got != want {
		t.Errorf("follower tip %d, want %d", got, want)
	}
	if got, want := s.TxnCount(), c.TxnCount(); got != want {
		t.Errorf("follower txn count %d, want %d", got, want)
	}
	if got, want := collectStore(s, All(), Filter{}), collectChain(c); !reflect.DeepEqual(got, want) {
		t.Errorf("followed store diverges: %d txns, want %d", len(got), len(want))
	}
	if s.Ledger() != c.Ledger() {
		t.Error("follower did not adopt the chain's ledger")
	}
	// Closing again is a no-op.
	if err := f.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
