package router

import (
	"bytes"
	"reflect"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/lorawan"
	"peoplesnet/internal/statechannel"
	"peoplesnet/internal/stats"
)

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rng := stats.NewRNG(99)
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
	r := newTestRouter(t, Config{})
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

// TestChannelLifecycleTxns: the first purchase opens the owner's first
// channel, and every purchase the stake cannot cover rolls the router
// onto the next one, so each channel pays for exactly its stake.
func TestChannelLifecycleTxns(t *testing.T) {
	r := newTestRouter(t, Config{ChannelStakeDC: 10})
	if r.channel != nil {
		t.Fatal("a channel is open before any purchase")
	}
	addr := lorawan.DevAddr(0) // unknown session is fine for Offer-only
	paid := make(map[string]int64)
	var order []string
	for i := 0; i < 25; i++ {
		p, ok := r.OfferPacket(statechannel.Offer{Hotspot: "h", PacketID: string(rune(i)), Bytes: 24, DevAddr: uint32(addr)})
		if !ok {
			t.Fatalf("offer %d refused", i)
		}
		if paid[p.ChannelID] == 0 {
			order = append(order, p.ChannelID)
		}
		paid[p.ChannelID] += p.DC
	}
	want := []string{chain.SCID("console", 1), chain.SCID("console", 2), chain.SCID("console", 3)}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("channels %v, want %v", order, want)
	}
	if paid[want[0]] != 10 || paid[want[1]] != 10 || paid[want[2]] != 5 {
		t.Fatalf("DC per channel %v, want 10, 10, 5", paid)
	}
}

func TestDirectoryRouting(t *testing.T) {
	r1 := newTestRouter(t, Config{Owner: "console"})
	r2 := newTestRouter(t, Config{Owner: "third-party"})
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
