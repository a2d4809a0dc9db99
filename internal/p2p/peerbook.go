// Package p2p models the Helium peer-to-peer swarm that §6.2 of the
// paper analyses: peer identities, the two peerbook listen-address
// formats (/ip4/… for publicly reachable hotspots and
// /p2p/…/p2p-circuit/… for NAT'd hotspots behind libp2p circuit
// relays), and relay selection policies. It models the peerbook §6.2
// reads; no transport carries bytes between peers.
package p2p

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync"

	"peoplesnet/internal/geo"
	"peoplesnet/internal/stats"
)

// PeerID is a hotspot's p2p identity (derived from its chain address).
type PeerID string

// PeerIDFrom derives the p2p identity for a chain address.
func PeerIDFrom(chainAddr string) PeerID {
	sum := sha256.Sum256([]byte("p2p:" + chainAddr))
	return PeerID(fmt.Sprintf("13%x", sum[:16]))
}

// ListenAddr is one peerbook entry. Exactly one of the two formats the
// paper describes (§6.2):
//
//	/ip4/<addr>/tcp/<port>
//	/p2p/<relay>/p2p-circuit/p2p/<peer>
type ListenAddr struct {
	// Direct fields.
	IP   netip.Addr
	Port int
	// Relay fields.
	Relay PeerID
	Peer  PeerID
}

// Relayed reports whether the entry is a circuit-relay address.
func (a ListenAddr) Relayed() bool { return a.Relay != "" }

// String renders the canonical multiaddr form.
func (a ListenAddr) String() string {
	if a.Relayed() {
		return fmt.Sprintf("/p2p/%s/p2p-circuit/p2p/%s", a.Relay, a.Peer)
	}
	return fmt.Sprintf("/ip4/%s/tcp/%d", a.IP, a.Port)
}

// ParseListenAddr parses either multiaddr form.
func ParseListenAddr(s string) (ListenAddr, error) {
	parts := strings.Split(strings.TrimPrefix(s, "/"), "/")
	switch {
	case len(parts) == 4 && parts[0] == "ip4" && parts[2] == "tcp":
		ip, err := netip.ParseAddr(parts[1])
		if err != nil {
			return ListenAddr{}, fmt.Errorf("p2p: bad ip4 addr %q: %w", parts[1], err)
		}
		port, err := strconv.Atoi(parts[3])
		if err != nil || port < 1 || port > 65535 {
			return ListenAddr{}, fmt.Errorf("p2p: bad port %q", parts[3])
		}
		return ListenAddr{IP: ip, Port: port}, nil
	case len(parts) == 5 && parts[0] == "p2p" && parts[2] == "p2p-circuit" && parts[3] == "p2p":
		if parts[1] == "" || parts[4] == "" {
			return ListenAddr{}, fmt.Errorf("p2p: empty peer id in %q", s)
		}
		return ListenAddr{Relay: PeerID(parts[1]), Peer: PeerID(parts[4])}, nil
	default:
		return ListenAddr{}, fmt.Errorf("p2p: unrecognized multiaddr %q", s)
	}
}

// Entry is one hotspot's row in the peerbook.
type Entry struct {
	Peer     PeerID
	Addr     ListenAddr
	Location geo.Point // asserted location, used by the distance analyses
}

// Peerbook is the swarm-wide address registry the DeWi database
// mirrors and the paper scrapes.
type Peerbook struct {
	mu      sync.RWMutex
	entries map[PeerID]Entry
}

// NewPeerbook returns an empty peerbook.
func NewPeerbook() *Peerbook {
	return &Peerbook{entries: make(map[PeerID]Entry)}
}

// Put inserts or replaces an entry.
func (pb *Peerbook) Put(e Entry) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	pb.entries[e.Peer] = e
}

// Get returns the entry for a peer.
func (pb *Peerbook) Get(p PeerID) (Entry, bool) {
	pb.mu.RLock()
	defer pb.mu.RUnlock()
	e, ok := pb.entries[p]
	return e, ok
}

// Len returns the number of entries.
func (pb *Peerbook) Len() int {
	pb.mu.RLock()
	defer pb.mu.RUnlock()
	return len(pb.entries)
}

// Entries returns all rows sorted by peer ID.
func (pb *Peerbook) Entries() []Entry {
	pb.mu.RLock()
	defer pb.mu.RUnlock()
	out := make([]Entry, 0, len(pb.entries))
	for _, e := range pb.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// RelaySelector chooses a relay for a NAT'd peer from the public
// candidates.
type RelaySelector interface {
	// Select returns the chosen relay for peer (located at loc).
	Select(loc geo.Point, candidates []Entry, rng *stats.RNG) (PeerID, bool)
}

// RandomRelay reproduces the production behaviour the paper
// establishes in Fig 11: peers choose relays uniformly at random with
// no geospatial consideration.
type RandomRelay struct{}

// Select implements RelaySelector.
func (RandomRelay) Select(_ geo.Point, candidates []Entry, rng *stats.RNG) (PeerID, bool) {
	if len(candidates) == 0 {
		return "", false
	}
	return candidates[rng.Intn(len(candidates))].Peer, true
}

// NearestRelay is the ablation policy: choose among the k nearest
// public peers (k > 1 spreads load so one relay does not capture a
// whole neighbourhood — the local-robustness concern in §6.2).
type NearestRelay struct{ K int }

// Select implements RelaySelector.
func (n NearestRelay) Select(loc geo.Point, candidates []Entry, rng *stats.RNG) (PeerID, bool) {
	if len(candidates) == 0 {
		return "", false
	}
	k := n.K
	if k < 1 {
		k = 1
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	sorted := append([]Entry(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool {
		return geo.HaversineKm(loc, sorted[i].Location) < geo.HaversineKm(loc, sorted[j].Location)
	})
	return sorted[rng.Intn(k)].Peer, true
}

// Stats produced by AnalyzeRelays: the inputs to Fig 10 and Fig 11.
type RelayStats struct {
	Total       int              // peers with non-empty listen addrs
	Relayed     int              // peers on circuit addresses
	FanOut      *stats.Histogram // peers per relay (Fig 10)
	DistancesKm *stats.CDF       // relay→peer distances (Fig 11a)
	MaxFanOut   int
}

// RelayedFraction returns Relayed/Total.
func (s RelayStats) RelayedFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Relayed) / float64(s.Total)
}

// AnalyzeRelays computes relay prevalence, fan-out, and relay→peer
// distances from the peerbook.
func AnalyzeRelays(pb *Peerbook) RelayStats {
	entries := pb.Entries()
	st := RelayStats{
		FanOut:      stats.NewHistogram(),
		DistancesKm: &stats.CDF{},
	}
	perRelay := make(map[PeerID]int)
	for _, e := range entries {
		st.Total++
		if !e.Addr.Relayed() {
			continue
		}
		st.Relayed++
		perRelay[e.Addr.Relay]++
		if relayEntry, ok := pb.Get(e.Addr.Relay); ok {
			if !e.Location.IsZero() && !relayEntry.Location.IsZero() {
				st.DistancesKm.Add(geo.HaversineKm(e.Location, relayEntry.Location))
			}
		}
	}
	for _, n := range perRelay {
		st.FanOut.Observe(n)
		if n > st.MaxFanOut {
			st.MaxFanOut = n
		}
	}
	return st
}

// RandomizedAssignment reassigns every relayed peer to a uniformly
// random public relay and returns the resulting distance CDF. Fig 11b
// runs this five times to show the actual assignment is statistically
// indistinguishable from random.
func RandomizedAssignment(pb *Peerbook, rng *stats.RNG) *stats.CDF {
	entries := pb.Entries()
	var public []Entry
	var relayed []Entry
	for _, e := range entries {
		if e.Addr.Relayed() {
			relayed = append(relayed, e)
		} else {
			public = append(public, e)
		}
	}
	cdf := &stats.CDF{}
	if len(public) == 0 {
		return cdf
	}
	for _, e := range relayed {
		r := public[rng.Intn(len(public))]
		if !e.Location.IsZero() && !r.Location.IsZero() {
			cdf.Add(geo.HaversineKm(e.Location, r.Location))
		}
	}
	return cdf
}
