package peoplesnet

// Substrate micro-benchmarks: throughput of the hot paths the
// simulator and analyses lean on. These complement the per-figure
// benches with the numbers a performance-minded adopter asks first.

import (
	"strconv"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/chainkey"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
	"peoplesnet/internal/lorawan"
	"peoplesnet/internal/poc"
	"peoplesnet/internal/radio"
	"peoplesnet/internal/statechannel"
	"peoplesnet/internal/stats"
)

func BenchmarkMicro_Haversine(b *testing.B) {
	a := geo.Point{Lat: 32.7157, Lon: -117.1611}
	c := geo.Point{Lat: 41.8781, Lon: -87.6298}
	for i := 0; i < b.N; i++ {
		geo.HaversineKm(a, c)
	}
}

func BenchmarkMicro_H3Encode(b *testing.B) {
	p := geo.Point{Lat: 32.7157, Lon: -117.1611}
	for i := 0; i < b.N; i++ {
		h3lite.FromLatLon(p, 12)
	}
}

func BenchmarkMicro_H3Decode(b *testing.B) {
	cell := h3lite.FromLatLon(geo.Point{Lat: 32.7157, Lon: -117.1611}, 12)
	for i := 0; i < b.N; i++ {
		cell.Center()
	}
}

func BenchmarkMicro_LedgerApplyAddGateway(b *testing.B) {
	l := chain.NewLedger()
	// Unique gateway per op; duplicate adds error out.
	gws := make([]string, b.N)
	for i := range gws {
		gws[i] = "hs" + strconv.Itoa(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.ApplyTxn(&chain.AddGateway{Gateway: gws[i], Owner: "w"}, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_LoRaWANFrameRoundTrip(b *testing.B) {
	key := lorawan.NewMICKey([]byte("bench-key-123456"))
	f := &lorawan.Frame{
		MType: lorawan.ConfirmedDataUp, DevAddr: 0x48000001,
		FCnt: 7, FPort: 1, Payload: make([]byte, 24),
	}
	for i := 0; i < b.N; i++ {
		wire := f.Marshal(key)
		g, err := lorawan.Parse(wire)
		if err != nil || g.Verify(key) != nil {
			b.Fatal("round trip failed")
		}
	}
}

func BenchmarkMicro_StateChannelBuy(b *testing.B) {
	signer := chainkey.Generate(stats.NewRNG(1))
	ch, _ := statechannel.Open("router", 1, 1, int64(b.N)*10+100, 0, 240)
	ids := make([]string, b.N)
	for i := range ids {
		ids[i] = "pkt" + string(rune(i)) + string(rune(i>>8)) + string(rune(i>>16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Buy(statechannel.Offer{Hotspot: "hs", PacketID: ids[i], Bytes: 24}, 0, signer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_PathLossSample(b *testing.B) {
	m := radio.NewPathLoss(radio.Urban, 915)
	rng := stats.NewRNG(2)
	for i := 0; i < b.N; i++ {
		m.SampleLossDB(1.5, rng)
	}
}

func BenchmarkMicro_PoCChallenge(b *testing.B) {
	rng := stats.NewRNG(3)
	center := geo.Point{Lat: 39.74, Lon: -104.99}
	sites := make([]*poc.Site, 200)
	for i := range sites {
		p := geo.Destination(center, rng.Float64()*360, rng.Float64()*15)
		sites[i] = &poc.Site{
			Address: "hs" + string(rune(i)), Asserted: p, Actual: p,
			Online: true, Env: radio.Suburban, GainDBi: 3,
		}
	}
	fleet := poc.NewFleet(sites)
	engine := poc.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.RunChallenge(fleet, sites[i%len(sites)], sites[(i+7)%len(sites)], rng)
	}
}

func BenchmarkMicro_SpatialIndexQuery(b *testing.B) {
	rng := stats.NewRNG(4)
	idx := geo.NewSpatialIndex(25)
	for i := 0; i < 50_000; i++ {
		idx.Add(i, geo.Point{Lat: 25 + rng.Float64()*24, Lon: -125 + rng.Float64()*58})
	}
	q := geo.Point{Lat: 39.74, Lon: -104.99}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Near(q, 50)
	}
}

func BenchmarkMicro_ConusRaster300m(b *testing.B) {
	rng := stats.NewRNG(5)
	cs := &geo.CoverageSet{}
	for i := 0; i < 5_000; i++ {
		cs.AddCircle(geo.Point{Lat: 25 + rng.Float64()*24, Lon: -125 + rng.Float64()*58}, 0.3)
	}
	r := geo.Raster{Landmass: geo.ContiguousUS(), CellKm: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Evaluate(cs)
	}
}
