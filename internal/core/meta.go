package core

import (
	"sort"

	"peoplesnet/internal/p2p"
	"peoplesnet/internal/stats"
)

// ISPAnalysis reproduces §6.1: Table 1, Fig 9, and the single-ASN
// city statistics, all from the dataset's IP metadata (only hotspots
// with public IPs count, as in the paper's zannotate pass).
type ISPAnalysis struct {
	// TopISPs is Table 1.
	TopISPs []ISPRow
	// ASNs is Fig 9, descending by count.
	ASNs []ASNRow
	// Cities with at least one public hotspot; SingleASNCities rely on
	// exactly one; SingleASNMulti have ≥2 hotspots on that single ASN.
	Cities          int
	SingleASNCities int
	SingleASNMulti  int
	CloudHotspots   int
	PublicHotspots  int
}

// ISPRow is one Table 1 row.
type ISPRow struct {
	ISP      string
	Hotspots int
}

// ASNRow is one Fig 9 point.
type ASNRow struct {
	ASN      uint32
	Hotspots int
}

// AnalyzeISPs tallies the metadata.
func (d *Dataset) AnalyzeISPs(topN int) ISPAnalysis {
	a := ISPAnalysis{}
	byISP := make(map[string]int)
	byASN := make(map[uint32]int)
	type cityStat struct {
		asns     map[uint32]bool
		hotspots int
	}
	cities := make(map[string]*cityStat)
	for _, m := range d.Meta {
		if m.Cloud {
			a.CloudHotspots++
		}
		if m.NATed || m.ASN == 0 {
			continue
		}
		a.PublicHotspots++
		byISP[m.ISP]++
		byASN[m.ASN]++
		if m.City != "" {
			cs := cities[m.City]
			if cs == nil {
				cs = &cityStat{asns: make(map[uint32]bool)}
				cities[m.City] = cs
			}
			cs.asns[m.ASN] = true
			cs.hotspots++
		}
	}
	for isp, n := range byISP {
		a.TopISPs = append(a.TopISPs, ISPRow{ISP: isp, Hotspots: n})
	}
	sort.Slice(a.TopISPs, func(i, j int) bool {
		if a.TopISPs[i].Hotspots != a.TopISPs[j].Hotspots {
			return a.TopISPs[i].Hotspots > a.TopISPs[j].Hotspots
		}
		return a.TopISPs[i].ISP < a.TopISPs[j].ISP
	})
	if topN > 0 && len(a.TopISPs) > topN {
		a.TopISPs = a.TopISPs[:topN]
	}
	for asn, n := range byASN {
		a.ASNs = append(a.ASNs, ASNRow{ASN: asn, Hotspots: n})
	}
	sort.Slice(a.ASNs, func(i, j int) bool {
		if a.ASNs[i].Hotspots != a.ASNs[j].Hotspots {
			return a.ASNs[i].Hotspots > a.ASNs[j].Hotspots
		}
		return a.ASNs[i].ASN < a.ASNs[j].ASN
	})
	for _, cs := range cities {
		a.Cities++
		if len(cs.asns) == 1 {
			a.SingleASNCities++
			if cs.hotspots >= 2 {
				a.SingleASNMulti++
			}
		}
	}
	return a
}

// OutageImpact reproduces the §6.1 Spectrum/Los Angeles case: how
// many of a city's hotspots ride the named ISP.
type OutageImpact struct {
	City         string
	ISP          string
	CityHotspots int
	Affected     int
	Fraction     float64
}

// AssessOutage counts a city's exposure to one provider.
func (d *Dataset) AssessOutage(city, isp string) OutageImpact {
	o := OutageImpact{City: city, ISP: isp}
	for _, m := range d.Meta {
		if m.City != city {
			continue
		}
		o.CityHotspots++
		if m.ISP == isp {
			o.Affected++
		}
	}
	if o.CityHotspots > 0 {
		o.Fraction = float64(o.Affected) / float64(o.CityHotspots)
	}
	return o
}

// BanImpact reproduces §9.1's legal thought experiment: if an ISP
// enforced its residential terms of service against Helium hotspots
// ("running any type of server"), what share of a country's fleet
// falls offline? The paper estimates "at least 17% of the US hotspots"
// for Spectrum — "at least" because NAT'd hotspots on the same ISP are
// invisible to the IP census, exactly as here.
type BanImpact struct {
	ISP     string
	Country string
	// VisibleAffected counts public-IP hotspots on the ISP;
	// CountryPublic is the public-IP denominator the paper uses.
	VisibleAffected int
	CountryPublic   int
	Fraction        float64
}

// AssessISPBan computes the §9.1 scenario for one provider.
func (d *Dataset) AssessISPBan(isp, country string) BanImpact {
	b := BanImpact{ISP: isp, Country: country}
	for _, m := range d.Meta {
		if m.Country != country || m.NATed || m.ASN == 0 {
			continue
		}
		b.CountryPublic++
		if m.ISP == isp {
			b.VisibleAffected++
		}
	}
	if b.CountryPublic > 0 {
		b.Fraction = float64(b.VisibleAffected) / float64(b.CountryPublic)
	}
	return b
}

// RelayAnalysis reproduces §6.2 / Figures 10 and 11.
type RelayAnalysis struct {
	Stats p2p.RelayStats
	// RandomTrials holds the distance CDFs of the randomized
	// reassignments (Fig 11b).
	RandomTrials []*stats.CDF
	// MaxKS is the largest KS statistic between the actual distance
	// distribution and any random trial — small values mean the
	// network assigns relays randomly, the paper's conclusion.
	MaxKS float64
}

// AnalyzeRelays runs the peerbook analyses with nTrials randomized
// reassignments.
func (d *Dataset) AnalyzeRelays(nTrials int, rng *stats.RNG) RelayAnalysis {
	a := RelayAnalysis{Stats: p2p.AnalyzeRelays(d.Peerbook)}
	for i := 0; i < nTrials; i++ {
		trial := p2p.RandomizedAssignment(d.Peerbook, rng)
		a.RandomTrials = append(a.RandomTrials, trial)
		if ks := a.Stats.DistancesKm.KolmogorovSmirnov(trial); ks > a.MaxKS {
			a.MaxKS = ks
		}
	}
	return a
}
