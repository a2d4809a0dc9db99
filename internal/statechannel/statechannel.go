// Package statechannel implements the off-chain packet-purchase
// protocol between hotspots and routers that §5.1 of the paper
// reverse-engineers: staked channels, per-packet offers and the
// purchase decision (whether to buy, how many copies, at what DC
// price). The close summaries that settle channels on chain are
// simnet's (§5 reads those); a field run's channel never settles.
package statechannel

import (
	"errors"
	"sync"

	"peoplesnet/internal/chain"
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

// Purchase is a router's commitment to pay for an offer: the DC it
// owes the selling hotspot and the channel that pays it.
type Purchase struct {
	Offer     Offer
	DC        int64
	ChannelID string
}

// ErrChannelExhausted refuses a purchase the remaining stake cannot
// cover.
var ErrChannelExhausted = errors.New("statechannel: stake exhausted")

// Channel is a router's live view of one open state channel.
type Channel struct {
	ID      string
	StakeDC int64

	mu      sync.Mutex
	spentDC int64
}

// Open creates the router-side state of the owner's nonce-th channel.
func Open(owner string, nonce int64, stakeDC int64) *Channel {
	return &Channel{ID: chain.SCID(owner, nonce), StakeDC: stakeDC}
}

// Buy evaluates an offer against the channel's remaining stake and
// produces the purchase. Every copy of a packet is bought: routers may
// buy as many duplicate copies as they wish (§5.1).
func (c *Channel) Buy(o Offer) (Purchase, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dc := DCForBytes(o.Bytes)
	if c.spentDC+dc > c.StakeDC {
		return Purchase{}, ErrChannelExhausted
	}
	c.spentDC += dc
	return Purchase{Offer: o, DC: dc, ChannelID: c.ID}, nil
}
