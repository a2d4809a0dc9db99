package hotspot

import (
	"bytes"
	"testing"

	"peoplesnet/internal/lorawan"
	"peoplesnet/internal/statechannel"
)

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
