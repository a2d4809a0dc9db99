// Package router implements a Helium router — and its hosted flavour,
// the Console (§2.2, §5.2): OTAA device onboarding, session and
// frame-counter tracking, the state-channel purchase policy (including
// duplicate-copy buying), per-user Data Credit accounting at cost,
// downlink/ACK scheduling against the 1 s / 2 s class-A windows, and
// application delivery through pluggable integrations (§5.2's "numerous
// integrations", including a real HTTP one).
package router

import (
	"fmt"
	"sync"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/chainkey"
	"peoplesnet/internal/hotspot"
	"peoplesnet/internal/lorawan"
	"peoplesnet/internal/statechannel"
	"peoplesnet/internal/stats"
)

// AppMessage is one decoded uplink delivered to an application.
type AppMessage struct {
	UserID  string
	DevEUI  lorawan.EUI64
	DevAddr lorawan.DevAddr
	FCnt    uint16
	FPort   uint8
	Payload []byte
	Hotspot string // which hotspot sold us this copy first
	RSSI    float64
}

// Integration receives application messages (§5.2).
type Integration interface {
	Deliver(AppMessage) error
}

// Device is a registered edge device.
type Device struct {
	DevEUI lorawan.EUI64
	AppEUI lorawan.EUI64
	AppKey lorawan.AppKey
	UserID string
}

// session is live OTAA state for a joined device.
type session struct {
	dev      *Device
	devAddr  lorawan.DevAddr
	nwkMIC   *lorawan.MICKey // keyed with the session's NwkSKey; used under Router.mu
	lastFCnt uint16
	seenAny  bool
}

// Config parameterizes a router.
type Config struct {
	OUI   uint32
	Owner string // wallet address
	Keys  *chainkey.Keypair
	// ChannelLifetimeBlocks is the open-to-deadline length. The
	// Console closes roughly every 120 blocks on 240-block channels
	// (Fig 8, §5.1).
	ChannelLifetimeBlocks int64
	// ChannelStakeDC staked per channel.
	ChannelStakeDC int64
	// MaxCopies bounds duplicate purchases of one packet (<=0:
	// unlimited, the paper's observed default).
	MaxCopies int
	// LatencySampler returns the router's response latency in seconds
	// for one transaction; decides which RX window (if any) an ACK
	// makes (§5.2's five-step under-1s dance). Nil means always ~0.2 s.
	LatencySampler func() float64
	// ChargeUsers bills device owners DC per delivered packet.
	ChargeUsers bool
}

// Router is a live router instance. It implements
// hotspot.PacketBuyer.
type Router struct {
	cfg Config

	mu        sync.Mutex
	devices   map[lorawan.EUI64]*Device
	sessions  map[lorawan.DevAddr]*session
	users     map[string]int64 // DC balances
	nextAddr  uint32
	scNonce   int64
	channel   *statechannel.Channel
	height    int64
	pending   []chain.Txn
	delivered map[string]bool // packetID → already delivered to app
	blocklist *statechannel.Blocklist
	integ     Integration
	rng       *stats.RNG

	// Counters.
	packetsBought int64
	packetsToApp  int64
	acksRX1       int64
	acksRX2       int64
	acksMissed    int64
	joinsAccepted int64
}

// New creates a router and queues its OUI registration transaction.
func New(cfg Config, rng *stats.RNG) *Router {
	if cfg.ChannelLifetimeBlocks == 0 {
		cfg.ChannelLifetimeBlocks = 240
	}
	if cfg.ChannelStakeDC == 0 {
		cfg.ChannelStakeDC = 1_000_000
	}
	r := &Router{
		cfg:       cfg,
		devices:   make(map[lorawan.EUI64]*Device),
		sessions:  make(map[lorawan.DevAddr]*session),
		users:     make(map[string]int64),
		delivered: make(map[string]bool),
		blocklist: statechannel.NewBlocklist(),
		rng:       rng,
	}
	r.pending = append(r.pending, &chain.OUIRegistration{OUI: cfg.OUI, Owner: cfg.Owner})
	return r
}

// SetIntegration installs the application delivery hook.
func (r *Router) SetIntegration(i Integration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.integ = i
}

// Blocklist exposes the router's hotspot blocklist.
func (r *Router) Blocklist() *statechannel.Blocklist { return r.blocklist }

// RegisterDevice enrolls a device under a user account (the Console
// "register a new device" step, §2.1).
func (r *Router) RegisterDevice(d Device) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := d
	r.devices[d.DevEUI] = &cp
}

// FundUser deposits DC into a user's Console balance (§2.1 "deposit
// money in their Console account").
func (r *Router) FundUser(userID string, dc int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.users[userID] += dc
}

// UserBalance returns a user's remaining DC.
func (r *Router) UserBalance(userID string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.users[userID]
}

// OwnsDevAddr reports whether the router holds a session for the
// address — the directory lookup hotspots perform (§2.2).
func (r *Router) OwnsDevAddr(a lorawan.DevAddr) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.sessions[a]
	return ok
}

// OwnsDevEUI reports whether the device is registered here (used to
// route join requests).
func (r *Router) OwnsDevEUI(e lorawan.EUI64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.devices[e]
	return ok
}

// OnBlock advances the router's view of chain height, closing expired
// channels (routers are responsible for closing, §5.1).
func (r *Router) OnBlock(height int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.height = height
	if r.channel != nil && height >= r.channel.ExpiresAt {
		r.pending = append(r.pending, r.channel.Close(nil))
		r.channel = nil
	}
}

// CloseChannelNow force-closes the active channel (the Console's
// ~120-block early close habit, Fig 8).
func (r *Router) CloseChannelNow() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.channel != nil {
		r.pending = append(r.pending, r.channel.Close(nil))
		r.channel = nil
	}
}

// PendingTxns drains transactions the router wants on chain.
func (r *Router) PendingTxns() []chain.Txn {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.pending
	r.pending = nil
	return out
}

// ensureChannel opens a state channel if none is active. Caller holds
// r.mu.
func (r *Router) ensureChannel() *statechannel.Channel {
	if r.channel == nil {
		r.scNonce++
		ch, openTxn := statechannel.Open(r.cfg.Owner, r.cfg.OUI, r.scNonce,
			r.cfg.ChannelStakeDC, r.height, r.cfg.ChannelLifetimeBlocks)
		r.channel = ch
		r.pending = append(r.pending, openTxn)
	}
	return r.channel
}

// OfferPacket implements hotspot.PacketBuyer: the purchase decision.
func (r *Router) OfferPacket(o statechannel.Offer) (statechannel.Purchase, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.blocklist.Blocked(o.Hotspot) {
		return statechannel.Purchase{}, false
	}
	// Refuse traffic for users who are out of DC.
	if r.cfg.ChargeUsers {
		if sess, ok := r.sessions[lorawan.DevAddr(o.DevAddr)]; ok {
			if r.users[sess.dev.UserID] < statechannel.DCForBytes(o.Bytes) {
				return statechannel.Purchase{}, false
			}
		}
	}
	ch := r.ensureChannel()
	p, err := ch.Buy(o, r.cfg.MaxCopies, r.cfg.Keys)
	if err != nil {
		if err == statechannel.ErrChannelExhausted {
			// Roll the channel and retry once.
			r.pending = append(r.pending, ch.Close(nil))
			r.channel = nil
			p, err = r.ensureChannel().Buy(o, r.cfg.MaxCopies, r.cfg.Keys)
		}
		if err != nil {
			return statechannel.Purchase{}, false
		}
	}
	r.packetsBought++
	return p, true
}

// latency samples the router's processing latency.
func (r *Router) latency() float64 {
	if r.cfg.LatencySampler != nil {
		return r.cfg.LatencySampler()
	}
	return 0.2
}

// ReleasePacket implements hotspot.PacketBuyer: payload ingestion,
// app delivery, and downlink/ACK scheduling.
func (r *Router) ReleasePacket(p statechannel.Purchase, frame []byte) ([]byte, int) {
	f, err := lorawan.Parse(frame)
	if err != nil {
		return nil, 0
	}
	switch f.MType {
	case lorawan.JoinRequestType:
		return r.handleJoin(f, p)
	case lorawan.ConfirmedDataUp, lorawan.UnconfirmedDataUp:
		downlink, window, msg := r.handleData(f, p)
		if msg != nil {
			r.mu.Lock()
			integ := r.integ
			r.mu.Unlock()
			if integ != nil {
				_ = integ.Deliver(*msg)
			}
		}
		return downlink, window
	default:
		return nil, 0
	}
}

func (r *Router) handleJoin(f *lorawan.Frame, p statechannel.Purchase) ([]byte, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dev, ok := r.devices[f.DevEUI]
	if !ok || dev.AppEUI != f.AppEUI {
		return nil, 0
	}
	appMIC := lorawan.NewMICKey(dev.AppKey[:])
	if err := f.Verify(appMIC); err != nil {
		return nil, 0
	}
	r.nextAddr++
	addr := lorawan.DevAddr(0x48000000 | r.nextAddr) // Helium NetID prefix flavour
	joinNonce := uint32(r.rng.Uint64())
	keys := lorawan.DeriveSessionKeys(dev.AppKey, f.DevNonce, joinNonce)
	sess := &session{
		dev:     dev,
		devAddr: addr,
		nwkMIC:  lorawan.NewMICKey(keys.NwkSKey[:]),
	}
	r.sessions[addr] = sess
	r.joinsAccepted++
	accept := &lorawan.Frame{MType: lorawan.JoinAcceptType, JoinNonce: joinNonce, DevAddr: addr}
	wire := accept.Marshal(appMIC)
	return wire, r.windowFor(r.latency())
}

func (r *Router) handleData(f *lorawan.Frame, p statechannel.Purchase) ([]byte, int, *AppMessage) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sess, ok := r.sessions[f.DevAddr]
	if !ok {
		return nil, 0, nil
	}
	if err := f.Verify(sess.nwkMIC); err != nil {
		return nil, 0, nil
	}
	// Deliver to the application once per packet (duplicate copies are
	// paid for but not re-delivered, §5.1/§5.3).
	var msg *AppMessage
	pid := p.Offer.PacketID
	if !r.delivered[pid] && (!sess.seenAny || f.FCnt != sess.lastFCnt) {
		r.delivered[pid] = true
		sess.lastFCnt = f.FCnt
		sess.seenAny = true
		if r.cfg.ChargeUsers {
			r.users[sess.dev.UserID] -= p.DC
		}
		r.packetsToApp++
		msg = &AppMessage{
			UserID:  sess.dev.UserID,
			DevEUI:  sess.dev.DevEUI,
			DevAddr: f.DevAddr,
			FCnt:    f.FCnt,
			FPort:   f.FPort,
			Payload: append([]byte(nil), f.Payload...),
			Hotspot: p.Offer.Hotspot,
		}
	}
	// ACK policy for confirmed uplinks.
	if f.MType != lorawan.ConfirmedDataUp {
		return nil, 0, msg
	}
	window := r.windowFor(r.latency())
	if window == 0 {
		r.acksMissed++
		return nil, 0, msg
	}
	if window == 1 {
		r.acksRX1++
	} else {
		r.acksRX2++
	}
	ack := &lorawan.Frame{
		MType:   lorawan.UnconfirmedDataDown,
		DevAddr: f.DevAddr,
		FCtrl:   lorawan.FCtrl{ACK: true},
		FCnt:    f.FCnt,
	}
	return ack.Marshal(sess.nwkMIC), window, msg
}

// windowFor maps a latency sample to the receive window it can make:
// 1 (RX1, <1 s), 2 (RX2, <2 s), or 0 (missed both).
func (r *Router) windowFor(latencySec float64) int {
	switch {
	case latencySec < lorawan.RX1DelaySec:
		return 1
	case latencySec < lorawan.RX2DelaySec:
		return 2
	default:
		return 0
	}
}

// HandleDemand arbitrates a hotspot's grace-period claim that a close
// omitted its purchases (§5.1). A demand backed by validly signed
// purchases amends the close and queues the amended transaction; a
// demand the router's own key cannot verify is a lie, and the only
// recourse the protocol gives the router is the blocklist.
func (r *Router) HandleDemand(cl *chain.StateChannelClose, d statechannel.Demand, closeHeight, demandHeight int64) (*chain.StateChannelClose, bool) {
	if !statechannel.WithinGrace(closeHeight, demandHeight) {
		return cl, false
	}
	amended, ok := statechannel.Arbitrate(cl, d, r.cfg.Keys.Public)
	if !ok {
		r.blocklist.Add(d.Hotspot, "invalid state-channel demand")
		return cl, false
	}
	r.mu.Lock()
	r.pending = append(r.pending, amended)
	r.mu.Unlock()
	return amended, true
}

// Stats reports router counters.
type Stats struct {
	PacketsBought int64
	PacketsToApp  int64
	AcksRX1       int64
	AcksRX2       int64
	AcksMissed    int64
	JoinsAccepted int64
}

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		PacketsBought: r.packetsBought,
		PacketsToApp:  r.packetsToApp,
		AcksRX1:       r.acksRX1,
		AcksRX2:       r.acksRX2,
		AcksMissed:    r.acksMissed,
		JoinsAccepted: r.joinsAccepted,
	}
}

// Directory routes frames to routers by DevAddr (sessions) or DevEUI
// (joins) — the blockchain filter-list lookup (§2.2).
type Directory struct {
	mu      sync.Mutex
	routers []*Router
}

// NewDirectory builds a directory over the given routers.
func NewDirectory(routers ...*Router) *Directory {
	return &Directory{routers: routers}
}

// Add registers another router.
func (d *Directory) Add(r *Router) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.routers = append(d.routers, r)
}

// LookupRouter implements hotspot.RouterDirectory.
func (d *Directory) LookupRouter(addr lorawan.DevAddr, devEUI lorawan.EUI64) (hotspot.PacketBuyer, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.routers {
		if r.OwnsDevAddr(addr) {
			return r, true
		}
	}
	// Join requests carry no DevAddr; route by DevEUI.
	var zero lorawan.EUI64
	if devEUI != zero {
		for _, r := range d.routers {
			if r.OwnsDevEUI(devEUI) {
				return r, true
			}
		}
	}
	return nil, false
}

// String describes the directory.
func (d *Directory) String() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Sprintf("directory(%d routers)", len(d.routers))
}
