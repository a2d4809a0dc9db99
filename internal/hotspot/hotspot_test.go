package hotspot

import (
	"bytes"
	"testing"
	"time"

	"peoplesnet/internal/lorawan"
	"peoplesnet/internal/statechannel"
)

func TestDatagramRoundTrips(t *testing.T) {
	gw := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	cases := []Datagram{
		{Kind: PushData, Token: 7, Gateway: gw, RXPKs: []RXPK{{
			Tmst: 1000, Freq: 904.1, Chan: 1, Stat: 1, Modu: "LORA",
			Datr: "SF9BW125", Codr: "4/5", RSSI: -101, LSNR: 5.5,
			Size: 4, Data: []byte{0xCA, 0xFE, 0x00, 0x01},
		}}},
		{Kind: PullData, Token: 8, Gateway: gw},
		{Kind: PushAck, Token: 7},
		{Kind: PullAck, Token: 8},
		{Kind: TxAck, Token: 9, Gateway: gw},
		{Kind: PullResp, Token: 10, TXPK: &TXPK{
			Imme: true, Freq: 923.3, Powe: 27, Modu: "LORA",
			Datr: "SF9BW500", Codr: "4/5", Size: 3, Data: []byte{1, 2, 3},
		}},
	}
	for _, d := range cases {
		raw, err := d.Marshal()
		if err != nil {
			t.Fatalf("%#x marshal: %v", d.Kind, err)
		}
		got, err := ParseDatagram(raw)
		if err != nil {
			t.Fatalf("%#x parse: %v", d.Kind, err)
		}
		if got.Kind != d.Kind || got.Token != d.Token || got.Gateway != d.Gateway {
			t.Fatalf("%#x header mismatch: %+v", d.Kind, got)
		}
		if d.Kind == PushData {
			if len(got.RXPKs) != 1 || !bytes.Equal(got.RXPKs[0].Data, d.RXPKs[0].Data) ||
				got.RXPKs[0].RSSI != -101 {
				t.Fatalf("rxpk mismatch: %+v", got.RXPKs)
			}
		}
		if d.Kind == PullResp {
			if got.TXPK == nil || !bytes.Equal(got.TXPK.Data, d.TXPK.Data) || got.TXPK.Freq != 923.3 {
				t.Fatalf("txpk mismatch: %+v", got.TXPK)
			}
		}
	}
}

func TestParseDatagramErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{2, 0},
		{1, 0, 0, PushData, 0, 0, 0, 0, 0, 0, 0, 0}, // wrong version
		{2, 0, 0, 0xFF},           // unknown kind
		{2, 0, 0, PushData, 1, 2}, // short EUI
		append([]byte{2, 0, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}, []byte("notjson")...),
		append([]byte{2, 0, 0, PullResp}, []byte("still not json")...),
	}
	for i, raw := range bad {
		if _, err := ParseDatagram(raw); err == nil {
			t.Fatalf("case %d parsed", i)
		}
	}
	// PULL_RESP without txpk cannot marshal.
	if _, err := (&Datagram{Kind: PullResp}).Marshal(); err == nil {
		t.Fatal("PULL_RESP without txpk marshalled")
	}
	if _, err := (&Datagram{Kind: 0x77}).Marshal(); err == nil {
		t.Fatal("unknown kind marshalled")
	}
}

func TestForwarderMinerUDPExchange(t *testing.T) {
	server, addr, err := NewGatewayServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	gw := [8]byte{0xAA, 1, 2, 3, 4, 5, 6, 0xBB}
	fwd, err := NewForwarder(gw, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	// Keepalive first (opens the downlink path), then an uplink.
	if err := fwd.Pull(); err != nil {
		t.Fatal(err)
	}
	if _, ok := WaitAck(fwd.Acks, 2*time.Second); !ok {
		t.Fatal("no PULL_ACK")
	}
	rx := RXPK{Tmst: 42, Freq: 904.3, Stat: 1, Modu: "LORA", Datr: "SF9BW125",
		Codr: "4/5", RSSI: -99, Size: 2, Data: []byte{0xBE, 0xEF}}
	if err := fwd.Push(rx); err != nil {
		t.Fatal(err)
	}
	if _, ok := WaitAck(fwd.Acks, 2*time.Second); !ok {
		t.Fatal("no PUSH_ACK")
	}
	select {
	case up := <-server.Uplinks:
		if up.Gateway != gw || !bytes.Equal(up.RXPK.Data, []byte{0xBE, 0xEF}) {
			t.Fatalf("uplink = %+v", up)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("uplink not delivered")
	}

	// Downlink back through PULL_RESP.
	if err := server.SendDownlink(TXPK{Imme: true, Freq: 923.3, Size: 1, Data: []byte{0x01}, Modu: "LORA"}); err != nil {
		t.Fatal(err)
	}
	select {
	case dl := <-fwd.Downlinks:
		if !bytes.Equal(dl.Data, []byte{0x01}) {
			t.Fatalf("downlink = %+v", dl)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("downlink not delivered")
	}
}

func TestSendDownlinkWithoutForwarder(t *testing.T) {
	server, _, err := NewGatewayServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if err := server.SendDownlink(TXPK{Imme: true}); err == nil {
		t.Fatal("downlink without a known forwarder succeeded")
	}
}

// fakeBuyer implements PacketBuyer for miner tests.
type fakeBuyer struct {
	buy      bool
	downlink []byte
	window   int
	offers   []statechannel.Offer
	released [][]byte
}

func (b *fakeBuyer) OfferPacket(o statechannel.Offer) (statechannel.Purchase, bool) {
	b.offers = append(b.offers, o)
	if !b.buy {
		return statechannel.Purchase{}, false
	}
	return statechannel.Purchase{Offer: o, DC: statechannel.DCForBytes(o.Bytes)}, true
}

func (b *fakeBuyer) ReleasePacket(p statechannel.Purchase, frame []byte) ([]byte, int) {
	b.released = append(b.released, frame)
	return b.downlink, b.window
}

type fakeDir struct{ buyer PacketBuyer }

func (d fakeDir) LookupRouter(lorawan.DevAddr, lorawan.EUI64) (PacketBuyer, bool) {
	if d.buyer == nil {
		return nil, false
	}
	return d.buyer, true
}

func uplinkFrame(t *testing.T) []byte {
	t.Helper()
	f := &lorawan.Frame{
		MType:   lorawan.ConfirmedDataUp,
		DevAddr: 0x11223344,
		FCnt:    5,
		FPort:   1,
		Payload: []byte{9, 9, 9},
	}
	return f.Marshal(lorawan.NewMICKey([]byte("k")))
}

func TestMinerSellsPacket(t *testing.T) {
	buyer := &fakeBuyer{buy: true, downlink: []byte{0xAC}, window: 1}
	m := NewMiner("hs1", fakeDir{buyer})
	frame := uplinkFrame(t)
	dl, window, err := m.HandleUplink(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dl, []byte{0xAC}) || window != 1 {
		t.Fatalf("downlink = %v window = %d", dl, window)
	}
	if len(buyer.offers) != 1 || buyer.offers[0].Hotspot != "hs1" {
		t.Fatalf("offers = %+v", buyer.offers)
	}
	if buyer.offers[0].PacketID != PacketID(frame) {
		t.Fatal("offer packet id mismatch")
	}
	if len(buyer.released) != 1 || !bytes.Equal(buyer.released[0], frame) {
		t.Fatal("payload not released")
	}
	st := m.Stats()
	if st.UplinksSeen != 1 || st.OffersMade != 1 || st.PacketsSold != 1 ||
		st.DCEarned != 1 || st.DownlinksQueued != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMinerRejectedOffer(t *testing.T) {
	buyer := &fakeBuyer{buy: false}
	m := NewMiner("hs1", fakeDir{buyer})
	dl, _, err := m.HandleUplink(uplinkFrame(t))
	if err != nil || dl != nil {
		t.Fatalf("rejected offer: dl=%v err=%v", dl, err)
	}
	st := m.Stats()
	if st.RejectedOffers != 1 || st.PacketsSold != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMinerUnroutedFrame(t *testing.T) {
	m := NewMiner("hs1", fakeDir{nil})
	if _, _, err := m.HandleUplink(uplinkFrame(t)); err == nil {
		t.Fatal("unrouted frame accepted")
	}
	if m.Stats().UnroutedFrames != 1 {
		t.Fatal("unrouted counter not bumped")
	}
}

func TestMinerRejectsGarbageAndDownlinks(t *testing.T) {
	m := NewMiner("hs1", fakeDir{&fakeBuyer{buy: true}})
	if _, _, err := m.HandleUplink([]byte{1, 2}); err == nil {
		t.Fatal("garbage accepted")
	}
	// A downlink frame must be refused.
	f := &lorawan.Frame{MType: lorawan.UnconfirmedDataDown, DevAddr: 1}
	if _, _, err := m.HandleUplink(f.Marshal(lorawan.NewMICKey([]byte("k")))); err == nil {
		t.Fatal("downlink frame accepted as uplink")
	}
}

func TestPacketIDStability(t *testing.T) {
	a := PacketID([]byte{1, 2, 3})
	if a != PacketID([]byte{1, 2, 3}) {
		t.Fatal("packet id unstable")
	}
	if a == PacketID([]byte{1, 2, 4}) {
		t.Fatal("packet id collision")
	}
}

func TestDatrString(t *testing.T) {
	if DatrString(9, 125) != "SF9BW125" {
		t.Fatal(DatrString(9, 125))
	}
}
