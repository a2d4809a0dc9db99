package chain

import (
	"strings"
	"testing"

	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
)

func loc(lat, lon float64) h3lite.Cell {
	return h3lite.FromLatLon(geo.Point{Lat: lat, Lon: lon}, 12)
}

func TestAddGateway(t *testing.T) {
	l := NewLedger()
	tx := &AddGateway{Gateway: "hs1", Owner: "w1", Location: loc(33, -117)}
	if err := l.ApplyTxn(tx, 10); err != nil {
		t.Fatal(err)
	}
	h, ok := l.GetHotspot("hs1")
	if !ok {
		t.Fatal("hotspot missing")
	}
	if h.Owner != "w1" || h.AddedBlock != 10 {
		t.Fatalf("hotspot = %+v", h)
	}
	if l.GetAccount("w1").Hotspots != 1 {
		t.Fatal("owner hotspot count not incremented")
	}
	// Duplicate rejected.
	if err := l.ApplyTxn(tx, 11); err == nil {
		t.Fatal("duplicate add_gateway accepted")
	}
}

func TestAddGatewayValidation(t *testing.T) {
	l := NewLedger()
	if err := l.ApplyTxn(&AddGateway{Gateway: "", Owner: "w"}, 1); err == nil {
		t.Fatal("empty gateway accepted")
	}
	if err := l.ApplyTxn(&AddGateway{Gateway: "g", Owner: ""}, 1); err == nil {
		t.Fatal("empty owner accepted")
	}
}

func TestAssertLocationFreeThenPaid(t *testing.T) {
	l := NewLedger()
	if err := l.ApplyTxn(&AddGateway{Gateway: "hs1", Owner: "w1"}, 1); err != nil {
		t.Fatal(err)
	}
	// First two asserts are free (§4.1).
	for i := 1; i <= 2; i++ {
		tx := &AssertLocation{Gateway: "hs1", Owner: "w1", Location: loc(33, -117), Nonce: i}
		if err := l.ApplyTxn(tx, int64(i+1)); err != nil {
			t.Fatalf("free assert %d: %v", i, err)
		}
	}
	// Third assert requires the fee.
	tx3 := &AssertLocation{Gateway: "hs1", Owner: "w1", Location: loc(34, -118), Nonce: 3}
	if err := l.ApplyTxn(tx3, 5); err == nil {
		t.Fatal("paid assert succeeded with zero DC")
	}
	l.CreditDC("w1", FeeAssertLocationDC)
	if err := l.ApplyTxn(tx3, 6); err != nil {
		t.Fatalf("paid assert with funds: %v", err)
	}
	if l.GetAccount("w1").DC != 0 {
		t.Fatalf("fee not deducted: %d DC left", l.GetAccount("w1").DC)
	}
	h, _ := l.GetHotspot("hs1")
	if h.AssertCount != 3 || len(h.LocationHistory) != 3 {
		t.Fatalf("assert history wrong: %+v", h)
	}
	if l.MoneyTotals().DCBurned != FeeAssertLocationDC {
		t.Fatal("assert fee not burned")
	}
}

func TestAssertLocationNonce(t *testing.T) {
	l := NewLedger()
	l.ApplyTxn(&AddGateway{Gateway: "hs1", Owner: "w1"}, 1)
	bad := &AssertLocation{Gateway: "hs1", Owner: "w1", Location: loc(1, 1), Nonce: 5}
	if err := l.ApplyTxn(bad, 2); err == nil || !strings.Contains(err.Error(), "nonce") {
		t.Fatalf("bad nonce accepted: %v", err)
	}
}

func TestAssertLocationWrongOwner(t *testing.T) {
	l := NewLedger()
	l.ApplyTxn(&AddGateway{Gateway: "hs1", Owner: "w1"}, 1)
	tx := &AssertLocation{Gateway: "hs1", Owner: "mallory", Location: loc(1, 1), Nonce: 1}
	if err := l.ApplyTxn(tx, 2); err == nil {
		t.Fatal("wrong owner accepted")
	}
}

func TestTransferHotspot(t *testing.T) {
	l := NewLedger()
	l.ApplyTxn(&AddGateway{Gateway: "hs1", Owner: "alice"}, 1)
	// Zero-DC transfer (the common case, §4.3.3).
	tx := &TransferHotspot{Gateway: "hs1", Seller: "alice", Buyer: "bob"}
	if err := l.ApplyTxn(tx, 2); err != nil {
		t.Fatal(err)
	}
	h, _ := l.GetHotspot("hs1")
	if h.Owner != "bob" || h.TransferCount != 1 {
		t.Fatalf("transfer not applied: %+v", h)
	}
	if l.GetAccount("alice").Hotspots != 0 || l.GetAccount("bob").Hotspots != 1 {
		t.Fatal("ownership counts wrong")
	}
	// Paid transfer.
	l.CreditHNT("carol", 5*BonesPerHNT)
	paid := &TransferHotspot{Gateway: "hs1", Seller: "bob", Buyer: "carol", AmountBones: 2 * BonesPerHNT}
	if err := l.ApplyTxn(paid, 3); err != nil {
		t.Fatal(err)
	}
	if l.GetAccount("carol").HNTBones != 3*BonesPerHNT || l.GetAccount("bob").HNTBones != 2*BonesPerHNT {
		t.Fatal("payment not moved")
	}
}

func TestTransferHotspotValidation(t *testing.T) {
	l := NewLedger()
	l.ApplyTxn(&AddGateway{Gateway: "hs1", Owner: "alice"}, 1)
	cases := []*TransferHotspot{
		{Gateway: "nope", Seller: "alice", Buyer: "bob"},
		{Gateway: "hs1", Seller: "mallory", Buyer: "bob"},
		{Gateway: "hs1", Seller: "alice", Buyer: ""},
		{Gateway: "hs1", Seller: "alice", Buyer: "alice"},
		{Gateway: "hs1", Seller: "alice", Buyer: "bob", AmountBones: -1},
		{Gateway: "hs1", Seller: "alice", Buyer: "bob", AmountBones: 1}, // bob has no HNT
	}
	for i, tx := range cases {
		if err := l.ApplyTxn(tx, 2); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestPoCRequestInterval(t *testing.T) {
	l := NewLedger()
	l.ApplyTxn(&AddGateway{Gateway: "hs1", Owner: "w"}, 1)
	if err := l.ApplyTxn(&PoCRequest{Challenger: "hs1", SecretHash: "x"}, 100); err != nil {
		t.Fatal(err)
	}
	// A second challenge in the same block.
	if err := l.ApplyTxn(&PoCRequest{Challenger: "hs1", SecretHash: "y"}, 100); err == nil {
		t.Fatal("second challenge in one block accepted")
	}
	// The next block.
	if err := l.ApplyTxn(&PoCRequest{Challenger: "hs1", SecretHash: "z"}, 101); err != nil {
		t.Fatal(err)
	}
}

func TestPoCReceipt(t *testing.T) {
	l := NewLedger()
	for _, hs := range []string{"a", "b", "c"} {
		l.ApplyTxn(&AddGateway{Gateway: hs, Owner: "w"}, 1)
	}
	rc := &PoCReceipt{
		Challenger: "a", Challengee: "b", ChallengeeLocation: loc(33, -117),
		Witnesses: []WitnessReport{
			{Witness: "c", RSSIdBm: -100, Valid: true},
			{Witness: "a", RSSIdBm: -90, Valid: false, Reason: "too_close"},
		},
	}
	if err := l.ApplyTxn(rc, 10); err != nil {
		t.Fatal(err)
	}
	b, _ := l.GetHotspot("b")
	if b.LastPoCBlock != 10 {
		t.Fatal("challengee LastPoCBlock not updated")
	}
	c, _ := l.GetHotspot("c")
	if c.ValidWitnessCount != 1 {
		t.Fatal("valid witness not counted")
	}
	a, _ := l.GetHotspot("a")
	if a.ValidWitnessCount != 0 {
		t.Fatal("invalid witness counted")
	}
	bad := &PoCReceipt{Challenger: "a", Challengee: "ghost"}
	if err := l.ApplyTxn(bad, 11); err == nil {
		t.Fatal("unknown challengee accepted")
	}
}

func TestOUISequence(t *testing.T) {
	l := NewLedger()
	if err := l.ApplyTxn(&OUIRegistration{OUI: 2, Owner: "x"}, 1); err == nil {
		t.Fatal("out-of-sequence OUI accepted")
	}
	if err := l.ApplyTxn(&OUIRegistration{OUI: 1, Owner: "helium"}, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.ApplyTxn(&OUIRegistration{OUI: 1, Owner: "other"}, 2); err == nil {
		t.Fatal("duplicate OUI accepted")
	}
	if err := l.ApplyTxn(&OUIRegistration{OUI: 2, Owner: "other"}, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(l.OUIs()); got != 2 {
		t.Fatalf("OUIs = %d", got)
	}
}

func TestStateChannelLifecycle(t *testing.T) {
	l := NewLedger()
	l.ApplyTxn(&AddGateway{Gateway: "hs1", Owner: "w"}, 1)
	l.ApplyTxn(&OUIRegistration{OUI: 1, Owner: "router"}, 1)
	l.CreditDC("router", 1000)

	open := &StateChannelOpen{ID: "sc1", Owner: "router", OUI: 1, AmountDC: 600, ExpireWithin: 240}
	if err := l.ApplyTxn(open, 10); err != nil {
		t.Fatal(err)
	}
	if l.GetAccount("router").DC != 400 {
		t.Fatalf("stake not deducted: %d", l.GetAccount("router").DC)
	}
	if ch := l.channels["sc1"]; len(l.channels) != 1 || ch == nil || ch.expireBlock != 250 {
		t.Fatalf("open channels = %v", l.channels)
	}

	cl := &StateChannelClose{ID: "sc1", Owner: "router", Summaries: []SCSummary{
		{Hotspot: "hs1", Packets: 42, DC: 100},
	}}
	if err := l.ApplyTxn(cl, 251); err != nil {
		t.Fatal(err)
	}
	// Unspent stake refunded: 400 + (600-100) = 900.
	if l.GetAccount("router").DC != 900 {
		t.Fatalf("refund wrong: %d", l.GetAccount("router").DC)
	}
	if l.MoneyTotals().DCBurned != 100 {
		t.Fatalf("burned = %d", l.MoneyTotals().DCBurned)
	}
	h, _ := l.GetHotspot("hs1")
	if h.DataPackets != 42 {
		t.Fatal("hotspot packet count not credited")
	}
	if len(l.channels) != 0 {
		t.Fatal("channel still open after close")
	}
}

func TestStateChannelValidation(t *testing.T) {
	l := NewLedger()
	l.ApplyTxn(&OUIRegistration{OUI: 1, Owner: "router"}, 1)
	l.CreditDC("router", 1000)
	cases := []*StateChannelOpen{
		{ID: "", Owner: "router", OUI: 1, AmountDC: 10, ExpireWithin: 100},
		{ID: "a", Owner: "router", OUI: 1, AmountDC: 0, ExpireWithin: 100},
		{ID: "b", Owner: "router", OUI: 1, AmountDC: 10, ExpireWithin: 5},      // below min
		{ID: "c", Owner: "router", OUI: 1, AmountDC: 10, ExpireWithin: 20_000}, // above max
		{ID: "d", Owner: "router", OUI: 9, AmountDC: 10, ExpireWithin: 100},    // unknown OUI
		{ID: "e", Owner: "other", OUI: 1, AmountDC: 10, ExpireWithin: 100},     // wrong owner
		{ID: "f", Owner: "router", OUI: 1, AmountDC: 10_000, ExpireWithin: 100},
	}
	for i, tx := range cases {
		if err := l.ApplyTxn(tx, 10); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	// Overspending close.
	l.ApplyTxn(&AddGateway{Gateway: "hs1", Owner: "w"}, 11)
	l.ApplyTxn(&StateChannelOpen{ID: "ok", Owner: "router", OUI: 1, AmountDC: 100, ExpireWithin: 100}, 12)
	over := &StateChannelClose{ID: "ok", Owner: "router", Summaries: []SCSummary{{Hotspot: "hs1", Packets: 1, DC: 500}}}
	if err := l.ApplyTxn(over, 13); err == nil {
		t.Fatal("overspend close accepted")
	}
}

func TestPaymentAndBurn(t *testing.T) {
	l := NewLedger()
	l.CreditHNT("alice", 10*BonesPerHNT)
	if err := l.ApplyTxn(&Payment{Payer: "alice", Payee: "bob", AmountBones: 4 * BonesPerHNT}, 1); err != nil {
		t.Fatal(err)
	}
	if l.GetAccount("bob").HNTBones != 4*BonesPerHNT {
		t.Fatal("payment not delivered")
	}
	if err := l.ApplyTxn(&Payment{Payer: "alice", Payee: "bob", AmountBones: 100 * BonesPerHNT}, 2); err == nil {
		t.Fatal("overdraft accepted")
	}
	// Burn 1 HNT at $15 → 1.5M DC.
	if err := l.ApplyTxn(&TokenBurn{Payer: "alice", Destination: "console", AmountBones: BonesPerHNT}, 3); err != nil {
		t.Fatal(err)
	}
	if dc := l.GetAccount("console").DC; dc != 1_500_000 {
		t.Fatalf("burn credited %d DC, want 1.5M", dc)
	}
	if l.MoneyTotals().HNTBurnedBones != BonesPerHNT {
		t.Fatal("burn not tallied")
	}
}

func TestRewards(t *testing.T) {
	l := NewLedger()
	l.ApplyTxn(&AddGateway{Gateway: "hs1", Owner: "w"}, 1)
	rw := &Rewards{Epoch: 1, Entries: []RewardEntry{
		{Account: "w", Gateway: "hs1", AmountBones: 100, Kind: RewardWitness},
		{Account: "w", AmountBones: 50, Kind: RewardChallenger},
	}}
	if err := l.ApplyTxn(rw, 30); err != nil {
		t.Fatal(err)
	}
	if l.GetAccount("w").HNTBones != 150 {
		t.Fatal("rewards not credited")
	}
	h, _ := l.GetHotspot("hs1")
	if h.EarnedBones != 100 {
		t.Fatal("gateway earnings not tracked")
	}
	if l.MoneyTotals().HNTMintedBones != 150 {
		t.Fatal("mint not tallied")
	}
	bad := &Rewards{Entries: []RewardEntry{{Account: "w", AmountBones: -5}}}
	if err := l.ApplyTxn(bad, 31); err == nil {
		t.Fatal("negative reward accepted")
	}
}

func TestRewardKindString(t *testing.T) {
	if RewardWitness.String() != "poc_witness" {
		t.Fatal(RewardWitness.String())
	}
	if RewardKind(99).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestTxnTypeString(t *testing.T) {
	if TxnAssertLocation.String() != "assert_location" {
		t.Fatal(TxnAssertLocation.String())
	}
	if TxnType(200).String() != "txn_type_200" {
		t.Fatal(TxnType(200).String())
	}
}

func TestStakeValidator(t *testing.T) {
	l := NewLedger()
	// Insufficient stake rejected.
	if err := l.ApplyTxn(&StakeValidator{Owner: "op", Validator: "v1"}, 1); err == nil {
		t.Fatal("unfunded stake accepted")
	}
	l.CreditHNT("op", 25_000*BonesPerHNT)
	if err := l.ApplyTxn(&StakeValidator{Owner: "op", Validator: "v1"}, 1); err != nil {
		t.Fatal(err)
	}
	if got := l.GetAccount("op").HNTBones; got != 15_000*BonesPerHNT {
		t.Fatalf("post-stake balance = %d", got)
	}
	if l.MoneyTotals().StakedBones != StakeValidatorBones {
		t.Fatal("stake not tallied")
	}
	if l.validators["v1"] != "op" {
		t.Fatalf("validators = %v", l.validators)
	}
	// Double-stake of the same validator rejected.
	if err := l.ApplyTxn(&StakeValidator{Owner: "op", Validator: "v1"}, 2); err == nil {
		t.Fatal("double stake accepted")
	}
	// Missing fields rejected.
	if err := l.ApplyTxn(&StakeValidator{Owner: "", Validator: "v2"}, 2); err == nil {
		t.Fatal("empty owner accepted")
	}
}

func TestConsensusGroup(t *testing.T) {
	l := NewLedger()
	if err := l.ApplyTxn(&ConsensusGroup{Epoch: 1}, 1); err == nil {
		t.Fatal("empty consensus group accepted")
	}
	if err := l.ApplyTxn(&ConsensusGroup{Epoch: 1, Members: []string{"a", "a"}}, 1); err == nil {
		t.Fatal("duplicate members accepted")
	}
	if err := l.ApplyTxn(&ConsensusGroup{Epoch: 1, Members: []string{"a", "b", "c"}}, 1); err != nil {
		t.Fatal(err)
	}
	if got := l.consensus; len(got) != 3 || got[0] != "a" {
		t.Fatalf("members = %v", got)
	}
	// A later group replaces the set.
	l.ApplyTxn(&ConsensusGroup{Epoch: 2, Members: []string{"x"}}, 30)
	if got := l.consensus; len(got) != 1 || got[0] != "x" {
		t.Fatalf("members after rotation = %v", got)
	}
}

func TestRoutingUpdate(t *testing.T) {
	l := NewLedger()
	if err := l.ApplyTxn(&RoutingUpdate{OUI: 1, Owner: "r"}, 1); err == nil {
		t.Fatal("update for unknown OUI accepted")
	}
	l.ApplyTxn(&OUIRegistration{OUI: 1, Owner: "router", Filters: []string{"old"}}, 1)
	if err := l.ApplyTxn(&RoutingUpdate{OUI: 1, Owner: "mallory", Filters: []string{"x"}}, 2); err == nil {
		t.Fatal("foreign routing update accepted")
	}
	if err := l.ApplyTxn(&RoutingUpdate{OUI: 1, Owner: "router", Filters: []string{"eui-1", "eui-2"}}, 2); err != nil {
		t.Fatal(err)
	}
	ouis := l.OUIs()
	if len(ouis) != 1 || len(ouis[0].Filters) != 2 || ouis[0].Filters[0] != "eui-1" {
		t.Fatalf("filters = %+v", ouis)
	}
}
