package hotspot_test

// Full-stack integration: a device's LoRaWAN frames travel through the
// real Semtech UDP forwarder protocol to a miner's gateway server,
// get sold to a real router over state channels, and the router's
// JoinAccept/ACK downlinks ride PULL_RESP back to the forwarder —
// every hop the paper's Figure 1 draws, over actual sockets.

import (
	"testing"
	"time"

	"peoplesnet/internal/chainkey"
	"peoplesnet/internal/device"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/hotspot"
	"peoplesnet/internal/lorawan"
	"peoplesnet/internal/router"
	"peoplesnet/internal/stats"
)

func TestFullStackOverUDP(t *testing.T) {
	rng := stats.NewRNG(1)

	// Cloud side: a Console-style router with a registered device.
	rtr := router.New(router.Config{
		OUI: 1, Owner: "console", Keys: chainkey.Generate(rng),
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
	dir := router.NewDirectory(rtr)

	// Hotspot: miner + gateway server + forwarder, wired over UDP.
	miner := hotspot.NewMiner("e2e-hotspot", dir)
	gw, gwAddr, err := hotspot.NewGatewayServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	fwd, err := hotspot.NewForwarder([8]byte{0xE2, 0xE2, 0, 0, 0, 0, 0, 1}, gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	if err := fwd.Pull(); err != nil { // open the downlink path
		t.Fatal(err)
	}

	// The miner consumes uplinks from its gateway server and pushes
	// downlinks back through it — the co-residency the paper explains
	// in §2.2.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for up := range gw.Uplinks {
			dl, _, err := miner.HandleUplink(up.RXPK.Data)
			if err != nil || dl == nil {
				continue
			}
			gw.SendDownlink(hotspot.TXPK{
				Imme: true, Freq: 923.3, Powe: 27, Modu: "LORA",
				Datr: "SF9BW500", Codr: "4/5", Size: len(dl), Data: dl,
			})
		}
	}()

	// radioHop pushes a device transmission through the forwarder as
	// if the concentrator had decoded it.
	radioHop := func(frame []byte) {
		t.Helper()
		if err := fwd.Push(hotspot.RXPK{
			Tmst: 1, Freq: 904.3, Stat: 1, Modu: "LORA",
			Datr: "SF9BW125", Codr: "4/5", RSSI: -95, LSNR: 7,
			Size: len(frame), Data: frame,
		}); err != nil {
			t.Fatal(err)
		}
	}
	awaitDownlink := func() []byte {
		t.Helper()
		select {
		case dl := <-fwd.Downlinks:
			return dl.Data
		case <-time.After(3 * time.Second):
			t.Fatal("no downlink arrived")
			return nil
		}
	}

	// OTAA join across the whole stack.
	radioHop(dev.BuildJoinRequest())
	if err := dev.HandleJoinAccept(awaitDownlink()); err != nil {
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
		radioHop(frame)
		if acked, err := dev.HandleDownlink(awaitDownlink(), 1); err != nil || !acked {
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
	deadline := time.Now().Add(2 * time.Second)
	for integ.Count() < packets && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
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
	// The router queued real chain transactions for its channel.
	if txns := rtr.PendingTxns(); len(txns) < 2 {
		t.Fatalf("router emitted %d txns", len(txns))
	}

	gw.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("miner loop did not stop")
	}
}
