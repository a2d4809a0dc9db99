package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/chainkey"
	"peoplesnet/internal/lorawan"
	"peoplesnet/internal/statechannel"
	"peoplesnet/internal/stats"
)

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rng := stats.NewRNG(99)
	if cfg.Keys == nil {
		cfg.Keys = chainkey.Generate(rng)
	}
	if cfg.OUI == 0 {
		cfg.OUI = 1
	}
	if cfg.Owner == "" {
		cfg.Owner = "console"
	}
	return New(cfg, rng)
}

var (
	devEUI = lorawan.EUIFromUint64(0x70B3D57ED0001234)
	appEUI = lorawan.EUIFromUint64(0x70B3D57ED0000001)
)

func testAppKey() lorawan.AppKey {
	var k lorawan.AppKey
	copy(k[:], "sixteen-byte-key")
	return k
}

// join performs OTAA and returns the assigned DevAddr and session keys.
func join(t *testing.T, r *Router) (lorawan.DevAddr, lorawan.SessionKeys) {
	t.Helper()
	key := testAppKey()
	jr := &lorawan.Frame{MType: lorawan.JoinRequestType, AppEUI: appEUI, DevEUI: devEUI, DevNonce: 1}
	wire := jr.Marshal(lorawan.NewMICKey(key[:]))
	p, ok := r.OfferPacket(statechannel.Offer{Hotspot: "hs1", PacketID: "join-1", Bytes: len(wire)})
	if !ok {
		t.Fatal("join offer rejected")
	}
	dl, window := r.ReleasePacket(p, wire)
	if dl == nil || window == 0 {
		t.Fatal("no join accept")
	}
	accept, err := lorawan.Parse(dl)
	if err != nil || accept.MType != lorawan.JoinAcceptType {
		t.Fatalf("join accept = %+v, %v", accept, err)
	}
	if err := accept.Verify(lorawan.NewMICKey(key[:])); err != nil {
		t.Fatal("join accept MIC invalid")
	}
	return accept.DevAddr, lorawan.DeriveSessionKeys(key, 1, accept.JoinNonce)
}

func uplink(addr lorawan.DevAddr, keys lorawan.SessionKeys, fcnt uint16, confirmed bool, payload []byte) []byte {
	mt := lorawan.UnconfirmedDataUp
	if confirmed {
		mt = lorawan.ConfirmedDataUp
	}
	f := &lorawan.Frame{MType: mt, DevAddr: addr, FCnt: fcnt, FPort: 1, Payload: payload}
	return f.Marshal(lorawan.NewMICKey(keys.NwkSKey[:]))
}

func TestJoinFlow(t *testing.T) {
	r := newTestRouter(t, Config{})
	r.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "alice"})
	addr, _ := join(t, r)
	if !r.OwnsDevAddr(addr) {
		t.Fatal("session not registered")
	}
	if !r.OwnsDevEUI(devEUI) {
		t.Fatal("device not registered")
	}
	if r.Stats().JoinsAccepted != 1 {
		t.Fatal("join not counted")
	}
}

func TestJoinRejectsUnknownDeviceAndBadMIC(t *testing.T) {
	r := newTestRouter(t, Config{})
	key := testAppKey()
	// Unknown device.
	jr := &lorawan.Frame{MType: lorawan.JoinRequestType, AppEUI: appEUI, DevEUI: devEUI, DevNonce: 1}
	p, _ := r.OfferPacket(statechannel.Offer{Hotspot: "h", PacketID: "x", Bytes: 23})
	if dl, _ := r.ReleasePacket(p, jr.Marshal(lorawan.NewMICKey(key[:]))); dl != nil {
		t.Fatal("unknown device joined")
	}
	// Known device, wrong key.
	r.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "alice"})
	wire := jr.Marshal(lorawan.NewMICKey([]byte("wrong-key-000000")))
	p2, _ := r.OfferPacket(statechannel.Offer{Hotspot: "h", PacketID: "y", Bytes: len(wire)})
	if dl, _ := r.ReleasePacket(p2, wire); dl != nil {
		t.Fatal("bad MIC joined")
	}
}

func TestConfirmedUplinkGetsAck(t *testing.T) {
	r := newTestRouter(t, Config{LatencySampler: func() float64 { return 0.3 }})
	r.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "alice"})
	integ := &MemoryIntegration{}
	r.SetIntegration(integ)
	addr, keys := join(t, r)

	wire := uplink(addr, keys, 1, true, []byte{0xAB})
	p, ok := r.OfferPacket(statechannel.Offer{Hotspot: "hs1", PacketID: "p1", Bytes: len(wire), DevAddr: uint32(addr)})
	if !ok {
		t.Fatal("offer rejected")
	}
	dl, window := r.ReleasePacket(p, wire)
	if dl == nil || window != 1 {
		t.Fatalf("ack = %v window %d", dl, window)
	}
	ack, _ := lorawan.Parse(dl)
	if !ack.FCtrl.ACK || ack.DevAddr != addr || ack.FCnt != 1 {
		t.Fatalf("ack frame = %+v", ack)
	}
	if integ.Count() != 1 || !bytes.Equal(integ.Messages()[0].Payload, []byte{0xAB}) {
		t.Fatalf("integration got %+v", integ.Messages())
	}
	st := r.Stats()
	if st.AcksRX1 != 1 || st.PacketsToApp != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLatencyWindows(t *testing.T) {
	lat := 0.0
	r := newTestRouter(t, Config{LatencySampler: func() float64 { return lat }})
	r.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "u"})
	addr, keys := join(t, r)
	cases := []struct {
		latency float64
		window  int
	}{
		{0.5, 1}, {1.5, 2}, {2.5, 0},
	}
	for i, c := range cases {
		lat = c.latency
		wire := uplink(addr, keys, uint16(10+i), true, []byte{1})
		p, _ := r.OfferPacket(statechannel.Offer{Hotspot: "h", PacketID: string(rune('a' + i)), Bytes: len(wire), DevAddr: uint32(addr)})
		dl, window := r.ReleasePacket(p, wire)
		if window != c.window {
			t.Fatalf("latency %v: window = %d, want %d", c.latency, window, c.window)
		}
		if (c.window == 0) != (dl == nil) {
			t.Fatalf("latency %v: dl presence mismatch", c.latency)
		}
	}
	st := r.Stats()
	if st.AcksRX1 < 1 || st.AcksRX2 != 1 || st.AcksMissed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicateCopyPurchasedOnceDelivered(t *testing.T) {
	r := newTestRouter(t, Config{MaxCopies: 3})
	r.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "u"})
	integ := &MemoryIntegration{}
	r.SetIntegration(integ)
	addr, keys := join(t, r)
	wire := uplink(addr, keys, 7, false, []byte{1, 2})
	// Three hotspots heard the same packet.
	for _, hs := range []string{"hs-a", "hs-b", "hs-c"} {
		p, ok := r.OfferPacket(statechannel.Offer{Hotspot: hs, PacketID: "same-packet", Bytes: len(wire), DevAddr: uint32(addr)})
		if !ok {
			t.Fatalf("copy from %s rejected", hs)
		}
		r.ReleasePacket(p, wire)
	}
	// A fourth copy exceeds MaxCopies.
	if _, ok := r.OfferPacket(statechannel.Offer{Hotspot: "hs-d", PacketID: "same-packet", Bytes: len(wire), DevAddr: uint32(addr)}); ok {
		t.Fatal("fourth copy bought")
	}
	if integ.Count() != 1 {
		t.Fatalf("app deliveries = %d, want 1", integ.Count())
	}
	if got := r.Stats().PacketsBought; got != 4 { // join + 3 copies
		t.Fatalf("bought = %d", got)
	}
}

func TestUserChargingAndCutoff(t *testing.T) {
	r := newTestRouter(t, Config{ChargeUsers: true})
	r.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "alice"})
	r.FundUser("alice", 2)
	addr, keys := join(t, r)
	for i := 0; i < 2; i++ {
		wire := uplink(addr, keys, uint16(i+1), false, []byte{byte(i)})
		p, ok := r.OfferPacket(statechannel.Offer{Hotspot: "h", PacketID: string(rune('a' + i)), Bytes: len(wire), DevAddr: uint32(addr)})
		if !ok {
			t.Fatalf("packet %d rejected with balance %d", i, r.UserBalance("alice"))
		}
		r.ReleasePacket(p, wire)
	}
	if r.UserBalance("alice") != 0 {
		t.Fatalf("balance = %d", r.UserBalance("alice"))
	}
	// Broke user: offers refused.
	wire := uplink(addr, keys, 9, false, []byte{9})
	if _, ok := r.OfferPacket(statechannel.Offer{Hotspot: "h", PacketID: "z", Bytes: len(wire), DevAddr: uint32(addr)}); ok {
		t.Fatal("offer accepted for broke user")
	}
}

func TestBlocklistRefusesOffers(t *testing.T) {
	r := newTestRouter(t, Config{})
	r.Blocklist().Add("liar", "claimed unsent packets")
	if _, ok := r.OfferPacket(statechannel.Offer{Hotspot: "liar", PacketID: "p", Bytes: 10}); ok {
		t.Fatal("blocklisted hotspot's offer accepted")
	}
}

func TestChannelLifecycleTxns(t *testing.T) {
	r := newTestRouter(t, Config{ChannelLifetimeBlocks: 240, ChannelStakeDC: 10})
	// Initial pending: OUI registration.
	txns := r.PendingTxns()
	if len(txns) != 1 || txns[0].TxnType() != chain.TxnOUI {
		t.Fatalf("initial txns = %v", txns)
	}
	// First purchase opens a channel.
	r.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "u"})
	join(t, r)
	txns = r.PendingTxns()
	if len(txns) != 1 || txns[0].TxnType() != chain.TxnStateChannelOpen {
		t.Fatalf("post-join txns = %v", txns)
	}
	// Exhausting the tiny stake rolls the channel: close + open.
	addr := lorawan.DevAddr(0) // unknown session is fine for Offer-only
	for i := 0; i < 12; i++ {
		r.OfferPacket(statechannel.Offer{Hotspot: "h", PacketID: string(rune(i)), Bytes: 24, DevAddr: uint32(addr)})
	}
	var kinds []chain.TxnType
	for _, tx := range r.PendingTxns() {
		kinds = append(kinds, tx.TxnType())
	}
	foundClose, foundOpen := false, false
	for _, k := range kinds {
		if k == chain.TxnStateChannelClose {
			foundClose = true
		}
		if k == chain.TxnStateChannelOpen {
			foundOpen = true
		}
	}
	if !foundClose || !foundOpen {
		t.Fatalf("channel roll txns = %v", kinds)
	}
	// Expiry close via OnBlock.
	r.OnBlock(10_000)
	txns = r.PendingTxns()
	if len(txns) != 1 || txns[0].TxnType() != chain.TxnStateChannelClose {
		t.Fatalf("expiry txns = %v", txns)
	}
	// CloseChannelNow with no channel is a no-op.
	r.CloseChannelNow()
	if len(r.PendingTxns()) != 0 {
		t.Fatal("spurious close")
	}
}

func TestHTTPIntegration(t *testing.T) {
	var got wireMessage
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		json.NewDecoder(req.Body).Decode(&got)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	integ := NewHTTPIntegration(srv.URL)
	err := integ.Deliver(AppMessage{UserID: "alice", FCnt: 3, FPort: 2, Payload: []byte{7}})
	if err != nil {
		t.Fatal(err)
	}
	if got.UserID != "alice" || got.FCnt != 3 || len(got.Payload) != 1 {
		t.Fatalf("posted = %+v", got)
	}
	// Failing endpoint reports an error.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	if err := NewHTTPIntegration(bad.URL).Deliver(AppMessage{}); err == nil {
		t.Fatal("500 not reported")
	}
}

func TestDirectoryRouting(t *testing.T) {
	r1 := newTestRouter(t, Config{OUI: 1, Owner: "console"})
	r2 := newTestRouter(t, Config{OUI: 3, Owner: "third-party"})
	r2.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "bob"})
	d := NewDirectory(r1)
	d.Add(r2)
	// Join routes by DevEUI to r2.
	buyer, ok := d.LookupRouter(0, devEUI)
	if !ok || buyer != hotspotBuyer(r2) {
		t.Fatal("join lookup failed")
	}
	// Data for an unknown address finds nothing.
	if _, ok := d.LookupRouter(0x12345678, lorawan.EUI64{}); ok {
		t.Fatal("unknown devaddr routed")
	}
	// After join, the address routes to r2.
	addr, _ := join(t, r2)
	buyer, ok = d.LookupRouter(addr, lorawan.EUI64{})
	if !ok || buyer != hotspotBuyer(r2) {
		t.Fatal("session lookup failed")
	}
	if d.String() != "directory(2 routers)" {
		t.Fatal(d.String())
	}
}

// hotspotBuyer adapts for interface comparison.
func hotspotBuyer(r *Router) interface {
	OfferPacket(statechannel.Offer) (statechannel.Purchase, bool)
} {
	return r
}

func TestRetransmissionSameFCnt(t *testing.T) {
	// A device that missed its ACK retransmits the same FCnt. The
	// router buys the copy (hotspots get paid), re-ACKs, but delivers
	// to the application only once (§5.1/§5.3's dedup caveat).
	r := newTestRouter(t, Config{LatencySampler: func() float64 { return 0.2 }})
	r.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "u"})
	integ := &MemoryIntegration{}
	r.SetIntegration(integ)
	addr, keys := join(t, r)

	wire := uplink(addr, keys, 3, true, []byte{0xAA})
	for attempt := 0; attempt < 3; attempt++ {
		p, ok := r.OfferPacket(statechannel.Offer{
			Hotspot: "hs1", PacketID: "retx", Bytes: len(wire), DevAddr: uint32(addr),
		})
		if !ok {
			t.Fatalf("attempt %d rejected", attempt)
		}
		dl, window := r.ReleasePacket(p, wire)
		if dl == nil || window == 0 {
			t.Fatalf("attempt %d: no ACK", attempt)
		}
	}
	if integ.Count() != 1 {
		t.Fatalf("retransmissions delivered %d times", integ.Count())
	}
	st := r.Stats()
	if st.PacketsBought != 4 { // join + 3 copies
		t.Fatalf("bought = %d", st.PacketsBought)
	}
}

func TestFCntAdvanceRedelivers(t *testing.T) {
	// A new FCnt with fresh content is a new packet even on the same
	// session.
	r := newTestRouter(t, Config{})
	r.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "u"})
	integ := &MemoryIntegration{}
	r.SetIntegration(integ)
	addr, keys := join(t, r)
	for fcnt := uint16(1); fcnt <= 3; fcnt++ {
		wire := uplink(addr, keys, fcnt, false, []byte{byte(fcnt)})
		p, _ := r.OfferPacket(statechannel.Offer{
			Hotspot: "hs", PacketID: string(rune('p' + fcnt)), Bytes: len(wire), DevAddr: uint32(addr),
		})
		r.ReleasePacket(p, wire)
	}
	if integ.Count() != 3 {
		t.Fatalf("delivered %d of 3 distinct packets", integ.Count())
	}
}

func TestHandleDemandArbitration(t *testing.T) {
	r := newTestRouter(t, Config{})
	r.RegisterDevice(Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: testAppKey(), UserID: "u"})
	addr, keys := join(t, r)

	// Two hotspots sell copies; the router "accidentally" omits one
	// from its close.
	var victimPurchases []statechannel.Purchase
	for i := 0; i < 3; i++ {
		wire := uplink(addr, keys, uint16(i+1), false, []byte{byte(i)})
		p, ok := r.OfferPacket(statechannel.Offer{
			Hotspot: "victim", PacketID: string(rune('v' + i)), Bytes: len(wire), DevAddr: uint32(addr),
		})
		if !ok {
			t.Fatal("offer rejected")
		}
		r.ReleasePacket(p, wire)
		victimPurchases = append(victimPurchases, p)
	}
	r.CloseChannelNow()
	var cl *chain.StateChannelClose
	for _, tx := range r.PendingTxns() {
		if c, ok := tx.(*chain.StateChannelClose); ok {
			cl = c
		}
	}
	if cl == nil {
		t.Fatal("no close emitted")
	}
	// Strip the victim from the close to simulate the omission.
	var stripped chain.StateChannelClose
	stripped = *cl
	stripped.Summaries = nil
	for _, s := range cl.Summaries {
		if s.Hotspot != "victim" {
			stripped.Summaries = append(stripped.Summaries, s)
		}
	}

	// Valid demand inside the grace window: close amended, txn queued.
	demand := statechannel.Demand{Hotspot: "victim", ChannelID: cl.ID, Purchases: victimPurchases}
	amended, ok := r.HandleDemand(&stripped, demand, 100, 105)
	if !ok {
		t.Fatal("valid demand rejected")
	}
	found := false
	for _, s := range amended.Summaries {
		if s.Hotspot == "victim" && s.Packets == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("amended close = %+v", amended.Summaries)
	}
	if txns := r.PendingTxns(); len(txns) != 1 || txns[0].TxnType() != chain.TxnStateChannelClose {
		t.Fatalf("amended close not queued: %v", txns)
	}

	// Late demand: refused, no blocklist (the window simply closed).
	if _, ok := r.HandleDemand(&stripped, demand, 100, 200); ok {
		t.Fatal("late demand accepted")
	}
	if r.Blocklist().Blocked("victim") {
		t.Fatal("late demand blocklisted an honest hotspot")
	}

	// Forged demand: refused AND blocklisted (§5.1's only recourse).
	forged := demand
	forged.Hotspot = "liar"
	if _, ok := r.HandleDemand(&stripped, forged, 100, 105); ok {
		t.Fatal("forged demand accepted")
	}
	if !r.Blocklist().Blocked("liar") {
		t.Fatal("lying hotspot not blocklisted")
	}
	// And future offers from the liar are refused.
	if _, ok := r.OfferPacket(statechannel.Offer{Hotspot: "liar", PacketID: "zz", Bytes: 10}); ok {
		t.Fatal("blocklisted liar's offer accepted")
	}
}
