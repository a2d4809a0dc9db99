// Package hotspot implements the miner half of a Helium hotspot
// (§2.2): it bridges received LoRa frames to routers through the
// state-channel offer/purchase protocol and returns the downlink the
// router wants sent in a class-A receive window. The paper's hotspot
// also runs a Semtech packet forwarder on the same box; its
// fire-and-forget backhaul is modelled as packet loss by fieldtest's
// BackhaulDropProb, not by a socket layer here.
package hotspot

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"peoplesnet/internal/lorawan"
	"peoplesnet/internal/statechannel"
)

// PacketBuyer is the router-side interface a miner sells packets to.
// Offer carries metadata only; the buyer answers with a purchase
// decision. Release then hands over the payload and collects any
// downlink the router wants transmitted in the device's receive
// window (§5.1, §5.2).
type PacketBuyer interface {
	// OfferPacket returns whether the router buys the described packet.
	OfferPacket(offer statechannel.Offer) (statechannel.Purchase, bool)
	// ReleasePacket delivers the purchased payload. The returned bytes,
	// if any, are a downlink frame to transmit; windowSec is 1 or 2
	// (RX1/RX2).
	ReleasePacket(p statechannel.Purchase, frame []byte) (downlink []byte, windowSec int)
}

// RouterDirectory resolves which router owns a frame, the Helium
// lookup that replaces LoRaWAN's statically configured router (§2.2:
// "Hotspots find Helium-compliant routers by looking up device owners
// using packet metadata and a filter list in the Helium blockchain").
type RouterDirectory interface {
	LookupRouter(devAddr lorawan.DevAddr, devEUI lorawan.EUI64) (PacketBuyer, bool)
}

// MinerStats counts a miner's data-plane activity.
type MinerStats struct {
	UplinksSeen     int64
	OffersMade      int64
	PacketsSold     int64
	DCEarned        int64
	DownlinksQueued int64
	UnroutedFrames  int64
	RejectedOffers  int64
}

// Miner is the blockchain half of a hotspot: it prices and sells
// received frames to routers and hands back their downlinks.
type Miner struct {
	Address string
	dir     RouterDirectory

	mu    sync.Mutex
	stats MinerStats
}

// NewMiner creates a miner for the hotspot with the given chain
// address.
func NewMiner(address string, dir RouterDirectory) *Miner {
	return &Miner{Address: address, dir: dir}
}

// Stats returns a copy of the miner's counters.
func (m *Miner) Stats() MinerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// PacketID derives the duplicate-detection ID for a frame: routers
// recognize the same packet arriving via different hotspots by
// content (§5.1).
func PacketID(frame []byte) string {
	sum := sha256.Sum256(frame)
	return fmt.Sprintf("pkt-%x", sum[:12])
}

// HandleUplink processes one received radio frame end to end: parse,
// route, offer, release on purchase. It returns the downlink frame to
// transmit (nil if none) and its receive window.
func (m *Miner) HandleUplink(frame []byte) (downlink []byte, windowSec int, err error) {
	m.mu.Lock()
	m.stats.UplinksSeen++
	m.mu.Unlock()

	f, err := lorawan.Parse(frame)
	if err != nil {
		return nil, 0, fmt.Errorf("hotspot: undecodable uplink: %w", err)
	}
	if !f.MType.Uplink() {
		return nil, 0, fmt.Errorf("hotspot: non-uplink frame %v", f.MType)
	}
	buyer, ok := m.dir.LookupRouter(f.DevAddr, f.DevEUI)
	if !ok {
		m.mu.Lock()
		m.stats.UnroutedFrames++
		m.mu.Unlock()
		return nil, 0, fmt.Errorf("hotspot: no router for devaddr %v", f.DevAddr)
	}
	offer := statechannel.Offer{
		Hotspot:  m.Address,
		PacketID: PacketID(frame),
		Bytes:    len(frame),
		DevAddr:  uint32(f.DevAddr),
	}
	m.mu.Lock()
	m.stats.OffersMade++
	m.mu.Unlock()

	purchase, bought := buyer.OfferPacket(offer)
	if !bought {
		m.mu.Lock()
		m.stats.RejectedOffers++
		m.mu.Unlock()
		return nil, 0, nil
	}
	dl, window := buyer.ReleasePacket(purchase, frame)
	m.mu.Lock()
	m.stats.PacketsSold++
	m.stats.DCEarned += purchase.DC
	if dl != nil {
		m.stats.DownlinksQueued++
	}
	m.mu.Unlock()
	return dl, window, nil
}
