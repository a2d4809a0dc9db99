package device

import (
	"math"
	"testing"

	"peoplesnet/internal/geo"
	"peoplesnet/internal/lorawan"
)

func testDevice() *Device {
	var key lorawan.AppKey
	copy(key[:], "another-test-key")
	return New(lorawan.EUIFromUint64(1), lorawan.EUIFromUint64(2), key)
}

// acceptJoin simulates the router side of OTAA for tests.
func acceptJoin(t *testing.T, d *Device) lorawan.SessionKeys {
	t.Helper()
	jrWire := d.BuildJoinRequest()
	jr, err := lorawan.Parse(jrWire)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Verify(lorawan.NewMICKey(d.AppKey[:])); err != nil {
		t.Fatal("join request MIC invalid")
	}
	accept := &lorawan.Frame{MType: lorawan.JoinAcceptType, JoinNonce: 42, DevAddr: 0x48000001}
	if err := d.HandleJoinAccept(accept.Marshal(lorawan.NewMICKey(d.AppKey[:]))); err != nil {
		t.Fatal(err)
	}
	return lorawan.DeriveSessionKeys(d.AppKey, jr.DevNonce, 42)
}

func TestJoinLifecycle(t *testing.T) {
	d := testDevice()
	if d.Joined() {
		t.Fatal("fresh device joined")
	}
	if _, err := d.SendCounter(0, geo.Point{}); err != ErrNotJoined {
		t.Fatalf("send before join: %v", err)
	}
	acceptJoin(t, d)
	if !d.Joined() || d.DevAddr() != 0x48000001 {
		t.Fatal("join state wrong")
	}
}

func TestHandleJoinAcceptErrors(t *testing.T) {
	d := testDevice()
	d.BuildJoinRequest()
	// Not a join accept.
	data := &lorawan.Frame{MType: lorawan.UnconfirmedDataDown, DevAddr: 1}
	if err := d.HandleJoinAccept(data.Marshal(lorawan.NewMICKey(d.AppKey[:]))); err != ErrNotJoinAccept {
		t.Fatalf("wrong type: %v", err)
	}
	// Bad MIC.
	accept := &lorawan.Frame{MType: lorawan.JoinAcceptType, JoinNonce: 1, DevAddr: 5}
	if err := d.HandleJoinAccept(accept.Marshal(lorawan.NewMICKey([]byte("wrong")))); err == nil {
		t.Fatal("bad MIC accepted")
	}
	// Garbage.
	if err := d.HandleJoinAccept([]byte{1}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCounterAppRoundTrip(t *testing.T) {
	d := testDevice()
	keys := acceptJoin(t, d)
	loc := geo.Point{Lat: 32.7157, Lon: -117.1611}
	wire, err := d.SendCounter(100.5, loc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := lorawan.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if f.MType != lorawan.ConfirmedDataUp || f.DevAddr != d.DevAddr() {
		t.Fatalf("frame = %+v", f)
	}
	if err := f.Verify(lorawan.NewMICKey(keys.NwkSKey[:])); err != nil {
		t.Fatal("uplink MIC invalid")
	}
	payload, err := ParseCounterPayload(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if payload.Counter != 1 {
		t.Fatalf("counter = %d", payload.Counter)
	}
	if math.Abs(payload.Lat-loc.Lat) > 1e-4 || math.Abs(payload.Lon-loc.Lon) > 1e-4 {
		t.Fatalf("gps round trip = %v/%v", payload.Lat, payload.Lon)
	}
	if math.Abs(payload.Timestamp-100.5) > 0.01 {
		t.Fatalf("timestamp = %v", payload.Timestamp)
	}
	if _, err := ParseCounterPayload([]byte{1, 2}); err == nil {
		t.Fatal("short payload parsed")
	}
}

func TestAckUpdatesLog(t *testing.T) {
	d := testDevice()
	keys := acceptJoin(t, d)
	wire, _ := d.SendCounter(10, geo.Point{})
	f, _ := lorawan.Parse(wire)
	ack := &lorawan.Frame{
		MType:   lorawan.UnconfirmedDataDown,
		DevAddr: d.DevAddr(),
		FCtrl:   lorawan.FCtrl{ACK: true},
		FCnt:    f.FCnt,
	}
	acked, err := d.HandleDownlink(ack.Marshal(lorawan.NewMICKey(keys.NwkSKey[:])), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !acked {
		t.Fatal("matching ACK not reported")
	}
	log := d.Log()
	if len(log) != 1 || !log[0].Acked || log[0].AckWindow != 1 {
		t.Fatalf("log = %+v", log)
	}
}

func TestAckValidation(t *testing.T) {
	d := testDevice()
	keys := acceptJoin(t, d)
	d.SendCounter(10, geo.Point{})
	// Wrong DevAddr.
	wrongAddr := &lorawan.Frame{MType: lorawan.UnconfirmedDataDown, DevAddr: 0x99, FCtrl: lorawan.FCtrl{ACK: true}, FCnt: 1}
	if _, err := d.HandleDownlink(wrongAddr.Marshal(lorawan.NewMICKey(keys.NwkSKey[:])), 1); err == nil {
		t.Fatal("foreign downlink accepted")
	}
	// Bad MIC.
	badMic := &lorawan.Frame{MType: lorawan.UnconfirmedDataDown, DevAddr: d.DevAddr(), FCtrl: lorawan.FCtrl{ACK: true}, FCnt: 1}
	if acked, err := d.HandleDownlink(badMic.Marshal(lorawan.NewMICKey([]byte("nope"))), 1); err == nil || acked {
		t.Fatalf("bad MIC downlink accepted: acked %v, %v", acked, err)
	}
	// A downlink without the ACK bit acknowledges nothing, even with
	// the latest FCnt.
	noAck := &lorawan.Frame{MType: lorawan.UnconfirmedDataDown, DevAddr: d.DevAddr(), FCnt: 1}
	if acked, err := d.HandleDownlink(noAck.Marshal(lorawan.NewMICKey(keys.NwkSKey[:])), 1); err != nil || acked {
		t.Fatalf("downlink without ACK bit: acked %v, %v", acked, err)
	}
	if d.Log()[0].Acked {
		t.Fatal("downlink without ACK bit marked the packet")
	}
	// Stale FCnt does not mark the latest packet.
	d.SendCounter(12, geo.Point{})
	stale := &lorawan.Frame{MType: lorawan.UnconfirmedDataDown, DevAddr: d.DevAddr(), FCtrl: lorawan.FCtrl{ACK: true}, FCnt: 1}
	acked, err := d.HandleDownlink(stale.Marshal(lorawan.NewMICKey(keys.NwkSKey[:])), 2)
	if err != nil {
		t.Fatal(err)
	}
	log := d.Log()
	if acked || log[len(log)-1].Acked {
		t.Fatal("stale ACK marked the latest packet")
	}
}

func TestNextSendDelay(t *testing.T) {
	// §8.1 footnote: ACK on first try → 1 packet/second; never ACK'd →
	// 1 packet per 2 seconds.
	if NextSendDelay(true, 1) != 1 {
		t.Fatal("RX1 ack should allow 1 s cadence")
	}
	if NextSendDelay(true, 2) != 2 || NextSendDelay(false, 0) != 2 {
		t.Fatal("RX2/NACK should give 2 s cadence")
	}
}

func TestWalkGeometry(t *testing.T) {
	start := geo.Point{Lat: 32.7, Lon: -117.16}
	end := geo.Destination(start, 90, 1) // 1 km east
	w := Walk{Waypoints: []geo.Point{start, end}, SpeedKmh: 4}
	// 1 km at 4 km/h = 900 s.
	if d := w.Duration(); math.Abs(d-900) > 1 {
		t.Fatalf("duration = %v", d)
	}
	if got := w.PositionAt(0); geo.HaversineKm(got, start) > 0.001 {
		t.Fatal("start position wrong")
	}
	mid := w.PositionAt(450)
	if d := geo.HaversineKm(start, mid); math.Abs(d-0.5) > 0.01 {
		t.Fatalf("midpoint distance = %v", d)
	}
	// Past the end clamps.
	if got := w.PositionAt(5000); geo.HaversineKm(got, end) > 0.001 {
		t.Fatal("end position wrong")
	}
}

func TestWalkMultiLeg(t *testing.T) {
	a := geo.Point{Lat: 32.7, Lon: -117.16}
	b := geo.Destination(a, 0, 0.5)
	c := geo.Destination(b, 90, 0.5)
	w := Walk{Waypoints: []geo.Point{a, b, c}, SpeedKmh: 5}
	// Total 1 km at 5 km/h = 720 s; at t=360 walker is at b.
	atB := w.PositionAt(360)
	if geo.HaversineKm(atB, b) > 0.01 {
		t.Fatalf("leg transition = %v, want near %v", atB, b)
	}
}

func TestWalkDegenerate(t *testing.T) {
	if (Walk{}).Duration() != 0 {
		t.Fatal("empty walk duration")
	}
	if !(Walk{}).PositionAt(10).IsZero() {
		t.Fatal("empty walk position")
	}
	single := Walk{Waypoints: []geo.Point{{Lat: 1, Lon: 1}}, SpeedKmh: 4}
	if single.PositionAt(100) != (geo.Point{Lat: 1, Lon: 1}) {
		t.Fatal("single waypoint should pin position")
	}
}
