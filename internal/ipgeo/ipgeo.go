// Package ipgeo synthesizes the Internet context around hotspot
// backhaul that §6 of the paper measures with zannotate, Route Views,
// and CAIDA's as2org: an ASN/organization registry, per-city ISP
// markets with realistic concentration, public-IP vs NAT'd attachment,
// and cloud-hosted ASNs (the validators the paper spots on Digital
// Ocean and Amazon).
package ipgeo

import (
	"fmt"
	"net/netip"
	"sync"

	"peoplesnet/internal/stats"
)

// Kind classifies an access network.
type Kind int

// Access network kinds.
const (
	Cable Kind = iota
	DSL
	Fiber
	WirelessISP
	Cloud
)

func (k Kind) String() string {
	switch k {
	case Cable:
		return "cable"
	case DSL:
		return "dsl"
	case Fiber:
		return "fiber"
	case WirelessISP:
		return "wireless"
	case Cloud:
		return "cloud"
	default:
		return fmt.Sprintf("kind_%d", int(k))
	}
}

// ISP is one provider organization. An ISP may announce several ASNs
// in the real world; the synthetic registry gives each one ASN, which
// is all the paper's per-ASN analyses need.
type ISP struct {
	Name    string
	ASN     uint32
	Kind    Kind
	Country string // ISO-like country tag; "US", "UK", "ES", ...
	// NATProb is the probability that a subscriber line does not get
	// an inbound-reachable public IP (CGNAT, router defaults). The
	// paper finds 55.48% of hotspots relayed (§6.2); residential cable
	// dominates that.
	NATProb float64
	// Share weights the ISP inside its country's market.
	Share float64
	// prefix is the synthetic /16 this ASN announces.
	prefix netip.Prefix
}

// Registry is the synthetic Internet: ISPs, their ASNs and prefixes,
// and helpers to attach subscribers.
type Registry struct {
	mu     sync.Mutex
	isps   []*ISP
	nextIP map[uint32]uint32 // per-ASN host counter
}

// majorISPs reproduces Table 1's cast with country tags and access
// kinds. Shares are proportional to the paper's observed hotspot
// counts, so sampling subscribers from city markets reproduces the
// table's ordering.
var majorISPs = []ISP{
	{Name: "Spectrum", Kind: Cable, Country: "US", NATProb: 0.62, Share: 2497},
	{Name: "Comcast", Kind: Cable, Country: "US", NATProb: 0.60, Share: 1922},
	{Name: "Verizon", Kind: Fiber, Country: "US", NATProb: 0.48, Share: 1590},
	{Name: "Cablevision", Kind: Cable, Country: "US", NATProb: 0.58, Share: 450},
	{Name: "AT&T", Kind: DSL, Country: "US", NATProb: 0.55, Share: 338},
	{Name: "Virgin Media", Kind: Cable, Country: "UK", NATProb: 0.60, Share: 333},
	{Name: "Cox", Kind: Cable, Country: "US", NATProb: 0.58, Share: 314},
	{Name: "Level 3", Kind: Fiber, Country: "US", NATProb: 0.20, Share: 202},
	{Name: "Sky UK", Kind: DSL, Country: "UK", NATProb: 0.57, Share: 199},
	{Name: "Telefonica", Kind: DSL, Country: "ES", NATProb: 0.57, Share: 199},
	{Name: "CenturyLink", Kind: DSL, Country: "US", NATProb: 0.55, Share: 188},
	{Name: "TELUS", Kind: Fiber, Country: "CA", NATProb: 0.50, Share: 185},
	{Name: "RCN", Kind: Cable, Country: "US", NATProb: 0.55, Share: 154},
	{Name: "Frontier", Kind: DSL, Country: "US", NATProb: 0.55, Share: 146},
	{Name: "Google Fiber", Kind: Fiber, Country: "US", NATProb: 0.35, Share: 142},
	// Cloud ASNs: the paper attributes these to validators (§6.1).
	{Name: "DigitalOcean", Kind: Cloud, Country: "US", NATProb: 0, Share: 72},
	{Name: "Amazon", Kind: Cloud, Country: "US", NATProb: 0, Share: 44},
}

// NewRegistry builds the registry: the major ISPs above plus a long
// tail of small regional providers (the paper sees 454 ASNs total,
// most hosting one or two hotspots — Fig 9).
func NewRegistry(rng *stats.RNG, tailASNs int) *Registry {
	r := &Registry{nextIP: make(map[uint32]uint32)}
	asn := uint32(7000)
	addISP := func(tpl ISP) *ISP {
		isp := tpl
		isp.ASN = asn
		// Give each ASN a distinct synthetic /16 out of 84.0.0.0/8
		// onward — never used for real routing, just parseable.
		hi := byte(84 + (asn-7000)/256)
		lo := byte((asn - 7000) % 256)
		isp.prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{hi, lo, 0, 0}), 16)
		asn++
		r.isps = append(r.isps, &isp)
		return &isp
	}
	for _, tpl := range majorISPs {
		addISP(tpl)
	}
	countries := []string{"US", "US", "US", "UK", "DE", "FR", "ES", "IT", "NL", "CA", "CN", "AU"}
	kinds := []Kind{Cable, DSL, Fiber, WirelessISP}
	for i := 0; i < tailASNs; i++ {
		addISP(ISP{
			Name:    fmt.Sprintf("Regional-%03d", i),
			Kind:    kinds[rng.Intn(len(kinds))],
			Country: countries[rng.Intn(len(countries))],
			NATProb: 0.35 + rng.Float64()*0.4,
			Share:   0.5 + rng.Pareto(0.5, 1.3), // heavy tail of tiny providers
		})
	}
	return r
}

// ISPs returns all providers.
func (r *Registry) ISPs() []*ISP { return r.isps }

// Market is the set of ISPs serving one city, with local shares.
type Market struct {
	City string
	ISPs []*ISP
}

// BuildMarket selects the providers serving a city. Cities are
// assigned 1–4 providers; smaller cities more often have a single
// provider (reproducing §6.1's 1,588 of 3,958 single-ASN cities).
// Providers are drawn from the city's country, falling back to the
// global tail.
func (r *Registry) BuildMarket(city, country string, population int, rng *stats.RNG) Market {
	var candidates []*ISP
	for _, isp := range r.isps {
		if isp.Kind == Cloud {
			continue
		}
		if isp.Country == country {
			candidates = append(candidates, isp)
		}
	}
	if len(candidates) == 0 {
		for _, isp := range r.isps {
			if isp.Kind != Cloud {
				candidates = append(candidates, isp)
			}
		}
	}
	// Number of providers scales weakly with population. Even small
	// towns often have a cable + DSL duopoly; the paper finds only
	// ~40% of hotspot-hosting cities on a single ASN (§6.1).
	n := 1
	switch {
	case population > 2_000_000:
		n = 3 + rng.Intn(2)
	case population > 400_000:
		n = 2 + rng.Intn(2)
	case population > 50_000:
		n = 1 + rng.Intn(2)
	default:
		if rng.Bool(0.6) {
			n = 2
		}
	}
	if n > len(candidates) {
		n = len(candidates)
	}
	// Weighted sample without replacement. Membership uses the same
	// NAT-compensated weight as Attach so that the *public* hotspot
	// counts across all cities track the calibrated shares (Table 1
	// counts public IPs only).
	chosen := make([]*ISP, 0, n)
	pool := append([]*ISP(nil), candidates...)
	for len(chosen) < n && len(pool) > 0 {
		weights := make([]float64, len(pool))
		for i, isp := range pool {
			pub := 1 - isp.NATProb
			if pub < 0.05 {
				pub = 0.05
			}
			weights[i] = isp.Share / pub
		}
		i := rng.WeightedChoice(weights)
		chosen = append(chosen, pool[i])
		pool = append(pool[:i], pool[i+1:]...)
	}
	return Market{City: city, ISPs: chosen}
}

// Attachment describes one subscriber line.
type Attachment struct {
	ISP      *ISP
	ASN      uint32
	PublicIP netip.Addr // zero value when NAT'd
	NATed    bool
	Port     int // Helium's well-known hotspot port when public
}

// HotspotPort is the port Helium miners listen on (§9.1: "They
// attempt to use a unique port, 44158").
const HotspotPort = 44158

// AttachLine picks the subscriber line only — provider by local
// share, NAT roll — without allocating a public IP. It touches no
// Registry state, so concurrent workers may call it with their own
// RNGs; the caller later runs AssignIP on the reachable attachments in
// a deterministic order (IP allocation is a sequential per-ASN
// counter, so allocation order is part of the world's identity).
func AttachLine(m Market, rng *stats.RNG) Attachment {
	if len(m.ISPs) == 0 {
		return Attachment{NATed: true}
	}
	// Table 1 counts hotspots with public IPs, and the calibrated
	// Share values come from that table — so weight subscriptions by
	// Share/(1−NATProb) to make the post-NAT public counts track the
	// shares.
	weights := make([]float64, len(m.ISPs))
	for i, isp := range m.ISPs {
		pub := 1 - isp.NATProb
		if pub < 0.05 {
			pub = 0.05
		}
		weights[i] = isp.Share / pub
	}
	isp := m.ISPs[rng.WeightedChoice(weights)]
	att := Attachment{ISP: isp, ASN: isp.ASN, Port: HotspotPort}
	if rng.Bool(isp.NATProb) {
		att.NATed = true
	}
	return att
}

// AssignIP allocates the attachment's public IP if it is reachable
// (non-NAT, provider known) and still unassigned.
func (r *Registry) AssignIP(att *Attachment) {
	if att.NATed || att.ISP == nil || att.PublicIP.IsValid() {
		return
	}
	att.PublicIP = r.allocIP(att.ISP)
}

// AttachCloud provisions a cloud-hosted node (validators).
func (r *Registry) AttachCloud(rng *stats.RNG) Attachment {
	var clouds []*ISP
	for _, isp := range r.isps {
		if isp.Kind == Cloud {
			clouds = append(clouds, isp)
		}
	}
	if len(clouds) == 0 {
		return Attachment{NATed: true}
	}
	weights := make([]float64, len(clouds))
	for i, c := range clouds {
		weights[i] = c.Share
	}
	isp := clouds[rng.WeightedChoice(weights)]
	return Attachment{ISP: isp, ASN: isp.ASN, PublicIP: r.allocIP(isp), Port: HotspotPort}
}

// allocIP hands out sequential host addresses from the ISP's prefix.
func (r *Registry) allocIP(isp *ISP) netip.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.nextIP[isp.ASN] + 1
	r.nextIP[isp.ASN] = n
	base := isp.prefix.Addr().As4()
	return netip.AddrFrom4([4]byte{base[0], base[1], byte(n >> 8), byte(n)})
}
