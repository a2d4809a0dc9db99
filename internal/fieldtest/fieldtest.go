// Package fieldtest drives the paper's §8 empirical experiments in
// virtual time: the best-case stationary test (§8.1, 68.61% / 73.2%
// PRR with outage and miss-run structure), and the urban/suburban
// coverage walks (§8.2.2, Fig 15) with their ACK/NACK validity tables
// (Tables 2 and 3) and HIP15 prediction accuracy.
//
// The driver wires real components together — a device producing
// LoRaWAN frames, hotspots reselling them to a router through state
// channels, the router ACKing into class-A windows — with the radio
// model deciding which hotspots hear which transmissions.
package fieldtest

import (
	"fmt"
	"math"
	"sort"

	"peoplesnet/internal/chainkey"
	"peoplesnet/internal/device"
	"peoplesnet/internal/geo"
	"peoplesnet/internal/hotspot"
	"peoplesnet/internal/lorawan"
	"peoplesnet/internal/radio"
	"peoplesnet/internal/router"
	"peoplesnet/internal/stats"
)

// Hotspot is one gateway in the experiment's neighbourhood.
type Hotspot struct {
	Address string
	Loc     geo.Point
	Env     radio.Environment
	GainDBi float64
	// Relayed hotspots add backhaul latency to the router's ACK path
	// (the paper's own hotspot was "rarely chosen... perhaps because
	// this hotspot is on a NAT'd residential connection and is
	// relayed", Fig 16).
	Relayed bool
	// Online gates backhaul; radio may still work while the cloud
	// path is down.
	Online bool
	// BackhaulDropProb is the per-packet probability that the
	// forwarder→miner→router path loses the packet even though the
	// radio decoded it: the no-retry UDP protocol, NAT bindings, and
	// relay flakiness the paper blames for unreliability (§2.2, §6.2).
	BackhaulDropProb float64
}

// Outage is a backhaul outage window in virtual seconds.
type Outage struct{ Start, End float64 }

// Config parameterizes one experiment run.
type Config struct {
	Hotspots []Hotspot
	// Walk, if non-nil, moves the device; otherwise it stays at
	// DeviceLoc.
	Walk      *device.Walk
	DeviceLoc geo.Point
	// DurationSec is the experiment length in virtual seconds. For
	// walks, the walk duration is used if shorter.
	DurationSec float64
	// Outages knock every hotspot's backhaul out (§8.1's ~2 h gaps
	// around a firmware release).
	Outages []Outage
	// RouterLatencyBase/Jitter shape the ACK-latency sample; relayed
	// hotspots add RelayPenaltySec.
	RouterLatencyBase float64
	RouterLatencyJit  float64
	RelayPenaltySec   float64
	// DownlinkLossProb adds downlink-specific loss beyond the PHY
	// asymmetry (gateway → device is harder, [21]).
	DownlinkExtraLossDB float64
	// StaticShadowing freezes one log-normal shadowing draw per
	// device↔hotspot link for the whole run, with only small fast
	// fading per packet. Physically right for a stationary device
	// (§8.1); walks leave it off because the geometry changes.
	StaticShadowing bool
	// Seed drives all randomness.
	Seed uint64
}

// PacketOutcome records one packet's fate on both sides of the
// network, the raw material of Tables 2–3 and Fig 15.
type PacketOutcome struct {
	Counter   uint32
	SentAt    float64
	Loc       geo.Point
	Receivers int  // hotspots that decoded the uplink
	Cloud     bool // payload reached the application (green dot)
	Acked     bool // device saw an ACK
	AckWindow int
}

// Result aggregates an experiment.
type Result struct {
	Packets []PacketOutcome

	Sent          int
	CloudReceived int

	// ACK validity (Tables 2, 3).
	CorrectAck    int // acked and cloud received
	CorrectNack   int // no ack, not received
	IncorrectAck  int // acked but never reached cloud
	IncorrectNack int // no ack, but cloud has it

	// Miss-run structure (§8.1): lengths of consecutive missed
	// packets.
	MissRuns []int

	// Ferried counts deliveries per hotspot and RSSIByHotspot tracks
	// the uplink RSSIs each reported — the Fig 16 appendix diagnostics
	// ("at least six different hotspots ferry data from this sensor...
	// RSSI ranging from -120 to -55").
	Ferried       map[string]int
	RSSIByHotspot map[string]*stats.CDF
}

// PRR returns the packet reception ratio (cloud side).
func (r *Result) PRR() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.CloudReceived) / float64(r.Sent)
}

// MissRunStats summarizes the miss-run distribution as (fraction of
// misses in runs of exactly 1, fraction in runs ≤2, longest run).
func (r *Result) MissRunStats() (single, atMostDouble float64, longest int) {
	totalMissed := 0
	inSingles, inDoubles := 0, 0
	for _, run := range r.MissRuns {
		totalMissed += run
		if run == 1 {
			inSingles += run
		}
		if run <= 2 {
			inDoubles += run
		}
		if run > longest {
			longest = run
		}
	}
	if totalMissed == 0 {
		return 0, 0, 0
	}
	return float64(inSingles) / float64(totalMissed), float64(inDoubles) / float64(totalMissed), longest
}

// HIP15Accuracy evaluates the 300 m coverage promise against the
// packet record (§8.2.2): prediction accuracy when the device was
// within 300 m of some hotspot, and when it was not.
func (r *Result) HIP15Accuracy(hotspots []Hotspot) (withinAcc, outsideAcc float64) {
	var withinTotal, withinOK, outsideTotal, outsideOK int
	for _, p := range r.Packets {
		within := false
		for _, h := range hotspots {
			if geo.HaversineM(p.Loc, h.Loc) <= 300 {
				within = true
				break
			}
		}
		if within {
			withinTotal++
			if p.Cloud {
				withinOK++
			}
		} else {
			outsideTotal++
			if !p.Cloud {
				outsideOK++
			}
		}
	}
	if withinTotal > 0 {
		withinAcc = float64(withinOK) / float64(withinTotal)
	}
	if outsideTotal > 0 {
		outsideAcc = float64(outsideOK) / float64(outsideTotal)
	}
	return
}

// Run executes the experiment.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Hotspots) == 0 {
		return nil, fmt.Errorf("fieldtest: no hotspots")
	}
	rng := stats.NewRNG(cfg.Seed)
	radioRNG := rng.Split("radio")
	routerRNG := rng.Split("router")

	// Router with a latency sampler that the driver parameterizes per
	// packet (base + jitter + relay penalty via closure state).
	extraLatency := 0.0
	rtr := router.New(router.Config{
		OUI:   1,
		Owner: "console",
		Keys:  chainkey.Generate(routerRNG),
		LatencySampler: func() float64 {
			l := cfg.RouterLatencyBase + routerRNG.Exponential(1/maxf(cfg.RouterLatencyJit, 1e-9))
			return l + extraLatency
		},
	}, routerRNG)

	var appKey lorawan.AppKey
	copy(appKey[:], "fieldtest-appkey")
	dev := device.New(lorawan.EUIFromUint64(0xD0), lorawan.EUIFromUint64(0xA0), appKey)
	rtr.RegisterDevice(router.Device{
		DevEUI: dev.DevEUI, AppEUI: dev.AppEUI, AppKey: appKey, UserID: "experimenter",
	})
	dir := router.NewDirectory(rtr)
	miners := make([]*hotspot.Miner, len(cfg.Hotspots))
	for i, h := range cfg.Hotspots {
		miners[i] = hotspot.NewMiner(h.Address, dir)
	}

	pos := func(t float64) geo.Point {
		if cfg.Walk != nil {
			return cfg.Walk.PositionAt(t)
		}
		return cfg.DeviceLoc
	}
	inOutage := func(t float64) bool {
		for _, o := range cfg.Outages {
			if t >= o.Start && t < o.End {
				return true
			}
		}
		return false
	}

	duration := cfg.DurationSec
	if cfg.Walk != nil {
		if wd := cfg.Walk.Duration(); duration == 0 || (wd > 0 && wd < duration) {
			duration = wd
		}
	}
	if duration <= 0 {
		return nil, fmt.Errorf("fieldtest: non-positive duration")
	}

	// Shadowing is reciprocal: the same obstruction attenuates uplink
	// and downlink alike, so each packet draws ONE shadow value per
	// device↔hotspot link, shared by both directions (plus a small
	// per-direction fast fade). Stationary runs freeze the draw for
	// the whole experiment (§8.1); walks redraw per packet because the
	// geometry changes.
	shadow := make([]float64, len(cfg.Hotspots))
	sigmaOf := func(h Hotspot) float64 {
		if cfg.StaticShadowing {
			return 7
		}
		switch h.Env {
		case radio.Urban, radio.DenseUrban:
			return 8
		case radio.Suburban:
			return 6
		default:
			return 4
		}
	}
	for i, h := range cfg.Hotspots {
		shadow[i] = radioRNG.Normal(0, sigmaOf(h))
	}
	// Walks evolve each link's shadow as an AR(1) process: shadowing
	// decorrelates over tens of meters of movement, not per packet.
	// Independent per-packet redraws would let a dozen out-of-range
	// hotspots take turns getting lucky, erasing the contiguous
	// dead zones the paper's walk maps show (Fig 15).
	const shadowRho = 0.975
	resampleShadow := func() {
		for i, h := range cfg.Hotspots {
			sigma := sigmaOf(h)
			shadow[i] = shadowRho*shadow[i] +
				math.Sqrt(1-shadowRho*shadowRho)*radioRNG.Normal(0, sigma)
		}
	}

	// linkRSSI computes the received power on the device↔hotspot link
	// in either direction using the current shadow draw.
	linkRSSI := func(hIdx int, p geo.Point, up bool) float64 {
		h := cfg.Hotspots[hIdx]
		link := radio.Link{Model: radio.NewPathLoss(h.Env, 915)}
		if up {
			link.TxPowerDBm, link.TxGainDBi, link.RxGainDBi = 20, 0, h.GainDBi
		} else {
			link.TxPowerDBm, link.TxGainDBi, link.RxGainDBi = 27, h.GainDBi, 0
			link.NoiseFigure = cfg.DownlinkExtraLossDB
		}
		dist := geo.HaversineKm(p, h.Loc)
		return link.RSSI(dist, nil) + shadow[hIdx] + radioRNG.Normal(0, 1.5)
	}

	// uplinkReceivers returns the indexes of hotspots that decode a
	// transmission from p, strongest first.
	uplinkReceivers := func(p geo.Point) []int {
		type rx struct {
			idx  int
			rssi float64
		}
		var rxs []rx
		for i := range cfg.Hotspots {
			rssi := linkRSSI(i, p, true)
			if radio.Delivered(rssi, radio.SF9, radio.BW125, radioRNG) {
				rxs = append(rxs, rx{i, rssi})
			}
		}
		sort.Slice(rxs, func(a, b int) bool { return rxs[a].rssi > rxs[b].rssi })
		out := make([]int, len(rxs))
		for i, r := range rxs {
			out[i] = r.idx
		}
		return out
	}

	// deliverDownlink models the gateway→device path with extra loss
	// for the asymmetry.
	deliverDownlink := func(hIdx int, p geo.Point) bool {
		rssi := linkRSSI(hIdx, p, false)
		return radio.Delivered(rssi, radio.SF9, radio.BW500, radioRNG)
	}

	// Join: keep trying until a hotspot carries the join exchange.
	t := 0.0
	for !dev.Joined() && t < duration {
		if !cfg.StaticShadowing {
			resampleShadow()
		}
		jr := dev.BuildJoinRequest()
		receivers := uplinkReceivers(pos(t))
		if len(receivers) > 0 && !inOutage(t) {
			hIdx := receivers[0]
			if cfg.Hotspots[hIdx].Online && !radioRNG.Bool(cfg.Hotspots[hIdx].BackhaulDropProb) {
				extraLatency = relayPenalty(cfg, hIdx)
				dl, _, err := miners[hIdx].HandleUplink(jr)
				if err == nil && dl != nil && deliverDownlink(hIdx, pos(t)) {
					if err := dev.HandleJoinAccept(dl); err != nil {
						return nil, err
					}
				}
			}
		}
		t += 5
	}
	if !dev.Joined() {
		return nil, fmt.Errorf("fieldtest: device never joined (no coverage at start)")
	}

	res := &Result{Ferried: map[string]int{}, RSSIByHotspot: map[string]*stats.CDF{}}
	missRun := 0
	for t < duration {
		if !cfg.StaticShadowing {
			resampleShadow()
		}
		p := pos(t)
		frame, err := dev.SendCounter(t, p)
		if err != nil {
			return nil, err
		}
		res.Sent++
		out := PacketOutcome{Counter: dev.Counter(), SentAt: t, Loc: p}

		receivers := uplinkReceivers(p)
		out.Receivers = len(receivers)
		acked := false
		window := 0
		if len(receivers) > 0 && !inOutage(t) {
			// Every receiving hotspot offers its copy; the router's
			// dedup means one app delivery. The ACK rides back through
			// the first hotspot the router purchased from (strongest).
			var ackDl []byte
			ackVia := -1
			for _, hIdx := range receivers {
				if !cfg.Hotspots[hIdx].Online {
					continue
				}
				if radioRNG.Bool(cfg.Hotspots[hIdx].BackhaulDropProb) {
					continue
				}
				extraLatency = relayPenalty(cfg, hIdx)
				dl, w, err := miners[hIdx].HandleUplink(frame)
				if err != nil {
					continue
				}
				out.Cloud = true
				name := cfg.Hotspots[hIdx].Address
				res.Ferried[name]++
				cdf := res.RSSIByHotspot[name]
				if cdf == nil {
					cdf = &stats.CDF{}
					res.RSSIByHotspot[name] = cdf
				}
				cdf.Add(linkRSSI(hIdx, p, true))
				if dl != nil && ackDl == nil {
					ackDl, window, ackVia = dl, w, hIdx
				}
			}
			if ackDl != nil && ackVia >= 0 && deliverDownlink(ackVia, p) {
				if ok, err := dev.HandleDownlink(ackDl, window); err == nil {
					acked = ok
				}
			}
		}
		out.Acked = acked
		out.AckWindow = window
		res.Packets = append(res.Packets, out)

		if out.Cloud {
			res.CloudReceived++
			if missRun > 0 {
				res.MissRuns = append(res.MissRuns, missRun)
				missRun = 0
			}
		} else {
			missRun++
		}
		switch {
		case out.Acked && out.Cloud:
			res.CorrectAck++
		case !out.Acked && !out.Cloud:
			res.CorrectNack++
		case out.Acked && !out.Cloud:
			res.IncorrectAck++
		default:
			res.IncorrectNack++
		}

		t += radio.Airtime(len(frame), radio.SF9, radio.BW125) + device.NextSendDelay(acked, window)
	}
	if missRun > 0 {
		res.MissRuns = append(res.MissRuns, missRun)
	}
	return res, nil
}

func relayPenalty(cfg Config, hIdx int) float64 {
	if cfg.Hotspots[hIdx].Relayed {
		return cfg.RelayPenaltySec
	}
	return 0
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
