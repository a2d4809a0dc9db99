package hotspot_test

// Full-stack integration: a device's LoRaWAN frames reach a miner,
// which looks up the owning router in the directory and sells them
// over state channels; the router's JoinAccept/ACK downlinks come back
// from HandleUplink to the device. These are the hops of the paper's
// Figure 1 above the radio, run in process as fieldtest runs them.

import (
	"testing"

	"peoplesnet/internal/device"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/hotspot"
	"peoplesnet/internal/lorawan"
	"peoplesnet/internal/router"
	"peoplesnet/internal/stats"
)

func TestFullStackInProcess(t *testing.T) {
	rng := stats.NewRNG(1)

	// Cloud side: a Console-style router with a registered device.
	rtr := router.New(router.Config{
		Owner:          "console",
		LatencySampler: func() float64 { return 0.2 },
	}, rng)
	var appKey lorawan.AppKey
	copy(appKey[:], "full-stack-key!!")
	dev := device.New(lorawan.EUIFromUint64(0xE2E), lorawan.EUIFromUint64(0xA99), appKey)
	rtr.RegisterDevice(router.Device{
		DevEUI: dev.DevEUI, AppEUI: dev.AppEUI, AppKey: appKey, UserID: "tester",
	})
	integ := &router.MemoryIntegration{}
	rtr.SetIntegration(integ)
	miner := hotspot.NewMiner("e2e-hotspot", router.NewDirectory(rtr))

	// uplink hands a device transmission to the miner as if the
	// concentrator had decoded it, and returns the router's downlink.
	uplink := func(frame []byte) (dl []byte, window int) {
		t.Helper()
		dl, window, err := miner.HandleUplink(frame)
		if err != nil {
			t.Fatal(err)
		}
		if dl == nil {
			t.Fatal("no downlink returned")
		}
		return dl, window
	}

	// OTAA join across the whole stack.
	joinAccept, _ := uplink(dev.BuildJoinRequest())
	if err := dev.HandleJoinAccept(joinAccept); err != nil {
		t.Fatalf("join accept: %v", err)
	}
	if !dev.Joined() {
		t.Fatal("device did not join")
	}

	// Confirmed uplinks with ACKs.
	const packets = 5
	for i := 0; i < packets; i++ {
		frame, err := dev.SendCounter(float64(i), geo.Point{Lat: 32.7, Lon: -117.1})
		if err != nil {
			t.Fatal(err)
		}
		if acked, err := dev.HandleDownlink(uplink(frame)); err != nil || !acked {
			t.Fatalf("packet %d ack: acked %v, %v", i, acked, err)
		}
	}

	// Device-side log: every packet ACK'd.
	for i, rec := range dev.Log() {
		if !rec.Acked {
			t.Fatalf("packet %d not acked", i)
		}
	}
	// Cloud side: payloads delivered, counters intact.
	msgs := integ.Messages()
	if len(msgs) != packets {
		t.Fatalf("app got %d messages, want %d", len(msgs), packets)
	}
	for i, m := range msgs {
		payload, err := device.ParseCounterPayload(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if payload.Counter != uint32(i+1) {
			t.Fatalf("message %d counter = %d", i, payload.Counter)
		}
		if m.Hotspot != "e2e-hotspot" {
			t.Fatalf("provenance = %q", m.Hotspot)
		}
	}
	// Economics: the miner earned DC for the join + data packets.
	if st := miner.Stats(); st.PacketsSold != packets+1 || st.DCEarned < int64(packets) {
		t.Fatalf("miner stats = %+v", st)
	}
}
