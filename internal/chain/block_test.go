package chain

import (
	"bytes"
	"testing"
	"time"
)

func TestChainAppendAndScan(t *testing.T) {
	c := NewChain(DefaultGenesis)
	if c.Height() != -1 {
		t.Fatal("empty chain height")
	}
	_, err := c.AppendBlock(1, []Txn{
		&AddGateway{Gateway: "hs1", Owner: "w1"},
		&AssertLocation{Gateway: "hs1", Owner: "w1", Location: loc(33, -117), Nonce: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Height() != 1 {
		t.Fatalf("height = %d", c.Height())
	}
	// Sparse heights allowed.
	if _, err := c.AppendBlock(100, []Txn{&AddGateway{Gateway: "hs2", Owner: "w2"}}); err != nil {
		t.Fatal(err)
	}
	// Non-increasing heights rejected.
	if _, err := c.AppendBlock(100, nil); err == nil {
		t.Fatal("duplicate height accepted")
	}
	if _, err := c.AppendBlock(50, nil); err == nil {
		t.Fatal("backwards height accepted")
	}
	if c.TxnCount() != 3 {
		t.Fatalf("txn count = %d", c.TxnCount())
	}
	mix := c.TxnMix()
	if mix[TxnAddGateway] != 2 || mix[TxnAssertLocation] != 1 {
		t.Fatalf("mix = %v", mix)
	}
	var seen int
	c.Scan(func(h int64, tx Txn) bool { seen++; return true })
	if seen != 3 {
		t.Fatalf("scan saw %d", seen)
	}
	seen = 0
	c.ScanType(TxnAddGateway, func(h int64, tx Txn) bool { seen++; return seen < 1 })
	if seen != 1 {
		t.Fatal("ScanType early stop failed")
	}
}

func TestChainRejectsInvalidBlock(t *testing.T) {
	c := NewChain(DefaultGenesis)
	_, err := c.AppendBlock(1, []Txn{
		&AssertLocation{Gateway: "ghost", Owner: "w", Location: loc(1, 1), Nonce: 1},
	})
	if err == nil {
		t.Fatal("invalid block accepted")
	}
	if c.Height() != -1 {
		t.Fatal("failed block advanced the chain")
	}
}

func TestIntraBlockDependency(t *testing.T) {
	// add_gateway followed by assert_location of the same hotspot in
	// one block must work.
	c := NewChain(DefaultGenesis)
	_, err := c.AppendBlock(5, []Txn{
		&AddGateway{Gateway: "hs", Owner: "w"},
		&AssertLocation{Gateway: "hs", Owner: "w", Location: loc(40, -100), Nonce: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := c.Ledger().GetHotspot("hs")
	if h.AssertCount != 1 {
		t.Fatal("intra-block assert lost")
	}
}

func TestBlockHashChaining(t *testing.T) {
	c := NewChain(DefaultGenesis)
	b1, _ := c.AppendBlock(1, []Txn{&AddGateway{Gateway: "a", Owner: "w"}})
	b2, _ := c.AppendBlock(2, []Txn{&AddGateway{Gateway: "b", Owner: "w"}})
	if b2.PrevHash != b1.Hash {
		t.Fatal("prev hash not chained")
	}
	if b1.Hash == b2.Hash {
		t.Fatal("distinct blocks share a hash")
	}
}

func TestTimeHeightConversion(t *testing.T) {
	c := NewChain(DefaultGenesis)
	ts := c.TimeOf(1440) // one day of minutes
	if got := ts.Sub(DefaultGenesis); got != 24*time.Hour {
		t.Fatalf("TimeOf(1440) offset = %v", got)
	}
}

func TestChainSerializationRoundTrip(t *testing.T) {
	c := NewChain(DefaultGenesis)
	c.AppendBlock(1, []Txn{
		&AddGateway{Gateway: "hs1", Owner: "w1", Maker: "OG"},
		&OUIRegistration{OUI: 1, Owner: "helium", Filters: []string{"eui-1"}},
		&DCCoinbase{Payee: "helium", AmountDC: 10_000},
		&SecurityCoinbase{Payee: "w1", AmountBones: 5 * BonesPerHNT},
	})
	c.AppendBlock(2, []Txn{
		&AssertLocation{Gateway: "hs1", Owner: "w1", Location: loc(33, -117), Nonce: 1},
		&StateChannelOpen{ID: "sc1", Owner: "helium", OUI: 1, AmountDC: 500, ExpireWithin: 240},
	})
	c.AppendBlock(250, []Txn{
		&PoCRequest{Challenger: "hs1", SecretHash: "s"},
		&PoCReceipt{Challenger: "hs1", Challengee: "hs1", ChallengeeLocation: loc(33, -117),
			Witnesses: []WitnessReport{{Witness: "hs1", RSSIdBm: -101.5, Valid: true}}},
		&StateChannelClose{ID: "sc1", Owner: "helium", Summaries: []SCSummary{{Hotspot: "hs1", Packets: 7, DC: 7}}},
		&Rewards{Epoch: 1, Entries: []RewardEntry{{Account: "w1", Gateway: "hs1", AmountBones: 10, Kind: RewardData}}},
	})

	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadChain(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Height() != c.Height() || c2.TxnCount() != c.TxnCount() {
		t.Fatalf("round trip mismatch: height %d/%d txns %d/%d",
			c2.Height(), c.Height(), c2.TxnCount(), c.TxnCount())
	}
	// Ledger state must match after replay.
	h1, _ := c.Ledger().GetHotspot("hs1")
	h2, _ := c2.Ledger().GetHotspot("hs1")
	if h1.Location != h2.Location || h1.DataPackets != h2.DataPackets || h1.ValidWitnessCount != h2.ValidWitnessCount {
		t.Fatalf("replayed hotspot differs: %+v vs %+v", h1, h2)
	}
	a1 := c.Ledger().GetAccount("helium")
	a2 := c2.Ledger().GetAccount("helium")
	if a1.DC != a2.DC {
		t.Fatalf("replayed DC differs: %d vs %d", a1.DC, a2.DC)
	}
	// 10,000 coinbase − 500 stake + 493 refund (7 DC spent) = 9,993.
	if a2.DC != 9_993 {
		t.Fatalf("helium DC = %d, want 9993", a2.DC)
	}
	w1, w2 := c.Ledger().GetAccount("w1"), c2.Ledger().GetAccount("w1")
	if w1.HNTBones != w2.HNTBones || w2.HNTBones != 5*BonesPerHNT+10 {
		t.Fatalf("w1 bones = %d/%d", w1.HNTBones, w2.HNTBones)
	}
}

// TestHourlyChallengesReplay: one challenger challenging in two hourly
// blocks 60 heights apart — the schedule the simulator generates —
// builds on a fresh chain and replays from its chain file.
func TestHourlyChallengesReplay(t *testing.T) {
	c := NewChain(DefaultGenesis)
	for _, b := range []struct {
		h    int64
		txns []Txn
	}{
		{2, []Txn{&AddGateway{Gateway: "hs1", Owner: "w"}}},
		{62, []Txn{&PoCRequest{Challenger: "hs1", SecretHash: "a"}}},
		{122, []Txn{&PoCRequest{Challenger: "hs1", SecretHash: "b"}}},
	} {
		if _, err := c.AppendBlock(b.h, b.txns); err != nil {
			t.Fatalf("append block %d: %v", b.h, err)
		}
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadChain(&buf)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if c2.Height() != 122 || c2.TxnCount() != 3 {
		t.Fatalf("replayed to height %d with %d txns, want 122 and 3", c2.Height(), c2.TxnCount())
	}
}

func TestReadChainErrors(t *testing.T) {
	if _, err := ReadChain(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadChain(bytes.NewReader([]byte("not json\n"))); err == nil {
		t.Fatal("garbage header accepted")
	}
	if _, err := ReadChain(bytes.NewReader([]byte("{\"genesis\":\"2019-07-29T00:00:00Z\"}\ngarbage\n"))); err == nil {
		t.Fatal("garbage block accepted")
	}
}

func TestHashStability(t *testing.T) {
	a := &AddGateway{Gateway: "g", Owner: "o"}
	b := &AddGateway{Gateway: "g", Owner: "o"}
	if Hash(a) != Hash(b) {
		t.Fatal("equal txns hash differently")
	}
	c := &AddGateway{Gateway: "g2", Owner: "o"}
	if Hash(a) == Hash(c) {
		t.Fatal("different txns hash equal")
	}
}

func TestSCIDDeterministic(t *testing.T) {
	if SCID("owner", 1) != SCID("owner", 1) {
		t.Fatal("SCID not deterministic")
	}
	if SCID("owner", 1) == SCID("owner", 2) {
		t.Fatal("SCID nonce collision")
	}
}
