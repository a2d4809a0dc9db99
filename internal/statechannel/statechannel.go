// Package statechannel implements the off-chain packet-purchase
// protocol between hotspots and routers that §5.1 of the paper
// reverse-engineers: staked channels, per-packet offers and the
// purchase decision (whether to buy, how many copies, at what DC
// price), and the close summaries that settle a channel on chain.
package statechannel

import (
	"errors"
	"sort"
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

// Errors.
var (
	ErrChannelExhausted = errors.New("statechannel: stake exhausted")
	ErrChannelClosed    = errors.New("statechannel: channel closed")
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

// Buy evaluates an offer against the channel's remaining stake and
// produces the purchase. Every copy of a packet is bought: routers may
// buy as many duplicate copies as they wish (§5.1).
func (c *Channel) Buy(o Offer) (Purchase, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Purchase{}, ErrChannelClosed
	}
	dc := DCForBytes(o.Bytes)
	if c.spentDC+dc > c.StakeDC {
		return Purchase{}, ErrChannelExhausted
	}
	c.spentDC += dc
	s := c.summaries[o.Hotspot]
	if s == nil {
		s = &chain.SCSummary{Hotspot: o.Hotspot}
		c.summaries[o.Hotspot] = s
	}
	s.Packets++
	s.DC += dc
	return Purchase{Offer: o, DC: dc, ChannelID: c.ID}, nil
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
