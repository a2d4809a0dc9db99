// Package statechannel implements the off-chain packet-purchase
// protocol between hotspots and routers that §5.1 of the paper
// reverse-engineers: staked channels, per-packet offers and signed
// purchases, duplicate-copy policies, close summaries, and the
// blocklist that is a router's only recourse against lying hotspots.
package statechannel

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/chainkey"
)

// DCForBytes prices a packet: 1 DC per started 24-byte increment,
// minimum 1.
func DCForBytes(n int) int64 {
	if n <= 0 {
		return 1
	}
	return int64((n + chain.DCPacketBytes - 1) / chain.DCPacketBytes)
}

// Offer is a hotspot's proposal to sell a received packet. It carries
// metadata only — the payload is withheld until purchase (§5.1).
type Offer struct {
	Hotspot  string
	PacketID string // hash of the packet, detects duplicates
	Bytes    int
	DevAddr  uint32
}

// Purchase is a router's signed commitment to pay for an offer.
type Purchase struct {
	Offer     Offer
	DC        int64
	ChannelID string
	Signature []byte
}

// purchaseBody serializes the signed fields.
func purchaseBody(o Offer, dc int64, channelID string) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, o.Hotspot...)
	buf = append(buf, 0)
	buf = append(buf, o.PacketID...)
	buf = append(buf, 0)
	var num [8]byte
	binary.BigEndian.PutUint64(num[:], uint64(o.Bytes))
	buf = append(buf, num[:]...)
	binary.BigEndian.PutUint64(num[:], uint64(dc))
	buf = append(buf, num[:]...)
	return append(buf, channelID...)
}

// Verify checks the purchase signature against the router's key.
func (p Purchase) Verify(routerPub ed25519.PublicKey) bool {
	return chainkey.Verify(routerPub, purchaseBody(p.Offer, p.DC, p.ChannelID), p.Signature)
}

// Errors.
var (
	ErrChannelExhausted = errors.New("statechannel: stake exhausted")
	ErrChannelClosed    = errors.New("statechannel: channel closed")
	ErrDuplicateCopies  = errors.New("statechannel: duplicate copy limit reached")
	ErrBlocklisted      = errors.New("statechannel: hotspot blocklisted")
)

// Channel is a router's live view of one open state channel.
type Channel struct {
	ID      string
	OUI     uint32
	Owner   string
	StakeDC int64

	mu        sync.Mutex
	spentDC   int64
	closed    bool
	summaries map[string]*chain.SCSummary
	// copies counts purchases per packet ID across all hotspots, for
	// the duplicate policy.
	copies map[string]int
}

// Open creates the router-side channel state together with its
// on-chain open transaction.
func Open(owner string, oui uint32, nonce int64, stakeDC, lifetimeBlocks int64) (*Channel, *chain.StateChannelOpen) {
	id := chain.SCID(owner, nonce)
	ch := &Channel{
		ID:        id,
		OUI:       oui,
		Owner:     owner,
		StakeDC:   stakeDC,
		summaries: make(map[string]*chain.SCSummary),
		copies:    make(map[string]int),
	}
	txn := &chain.StateChannelOpen{
		ID:           id,
		Owner:        owner,
		OUI:          oui,
		AmountDC:     stakeDC,
		ExpireWithin: lifetimeBlocks,
	}
	return ch, txn
}

// Buy evaluates an offer against the channel: duplicate-copy policy,
// remaining stake, and produces a signed purchase. maxCopies <= 0
// means unlimited (the paper notes routers may buy as many duplicate
// copies as they wish, §5.1).
func (c *Channel) Buy(o Offer, maxCopies int, signer *chainkey.Keypair) (Purchase, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Purchase{}, ErrChannelClosed
	}
	if maxCopies > 0 && c.copies[o.PacketID] >= maxCopies {
		return Purchase{}, ErrDuplicateCopies
	}
	dc := DCForBytes(o.Bytes)
	if c.spentDC+dc > c.StakeDC {
		return Purchase{}, ErrChannelExhausted
	}
	c.spentDC += dc
	c.copies[o.PacketID]++
	s := c.summaries[o.Hotspot]
	if s == nil {
		s = &chain.SCSummary{Hotspot: o.Hotspot}
		c.summaries[o.Hotspot] = s
	}
	s.Packets++
	s.DC += dc
	p := Purchase{Offer: o, DC: dc, ChannelID: c.ID}
	p.Signature = signer.Sign(purchaseBody(o, dc, c.ID))
	return p, nil
}

// Close finalizes the channel and emits the close transaction.
func (c *Channel) Close() *chain.StateChannelClose {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	cl := &chain.StateChannelClose{ID: c.ID, Owner: c.Owner}
	for _, s := range c.summaries {
		cl.Summaries = append(cl.Summaries, *s)
	}
	// Deterministic order for serialization.
	sort.Slice(cl.Summaries, func(i, j int) bool { return cl.Summaries[i].Hotspot < cl.Summaries[j].Hotspot })
	return cl
}

// Blocklist is a router's memory of hotspots that lied about sending
// data (§5.1: "routers have no recourse but to add the hotspot to a
// blocklist and not make future offers to purchase its packets").
type Blocklist struct {
	mu  sync.Mutex
	set map[string]string // hotspot → reason
}

// NewBlocklist returns an empty blocklist.
func NewBlocklist() *Blocklist {
	return &Blocklist{set: make(map[string]string)}
}

// Add records a hotspot with a reason.
func (b *Blocklist) Add(hotspot, reason string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.set[hotspot] = reason
}

// Blocked reports whether the hotspot is listed.
func (b *Blocklist) Blocked(hotspot string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.set[hotspot]
	return ok
}

// Len returns the number of listed hotspots.
func (b *Blocklist) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.set)
}

// Reason returns why a hotspot was listed.
func (b *Blocklist) Reason(hotspot string) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.set[hotspot]
	return r, ok
}

// String summarizes the blocklist.
func (b *Blocklist) String() string {
	return fmt.Sprintf("blocklist(%d hotspots)", b.Len())
}
