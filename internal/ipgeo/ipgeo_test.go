package ipgeo

import (
	"testing"

	"peoplesnet/internal/stats"
)

func newReg(seed uint64) (*Registry, *stats.RNG) {
	rng := stats.NewRNG(seed)
	return NewRegistry(rng, 440), rng
}

// attach provisions one subscriber line as the world generator does:
// AttachLine picks it, then AssignIP allocates its public IP.
func attach(r *Registry, m Market, rng *stats.RNG) Attachment {
	att := AttachLine(m, rng)
	r.AssignIP(&att)
	return att
}

func TestRegistrySize(t *testing.T) {
	r, _ := newReg(1)
	// 17 major + 440 tail ≈ the paper's 454 ASNs (Fig 9).
	if got := len(r.ISPs()); got != 457 {
		t.Fatalf("registry has %d ISPs", got)
	}
	seen := make(map[uint32]bool)
	for _, isp := range r.ISPs() {
		if seen[isp.ASN] {
			t.Fatalf("duplicate ASN %d", isp.ASN)
		}
		seen[isp.ASN] = true
	}
}

func TestAttachPublicIPInPrefix(t *testing.T) {
	r, rng := newReg(2)
	spectrum := r.ISPs()[0]
	if spectrum.Name != "Spectrum" {
		t.Fatalf("first ISP = %s", spectrum.Name)
	}
	// A public line gets an address from its provider's prefix.
	att := attach(r, Market{City: "x", ISPs: []*ISP{spectrum}}, rng)
	for att.NATed { // retry until we land a public line
		att = attach(r, Market{City: "x", ISPs: []*ISP{spectrum}}, rng)
	}
	if att.ASN != spectrum.ASN || !spectrum.prefix.Contains(att.PublicIP) {
		t.Fatalf("public IP %v (ASN %d) not in %v (ASN %d)", att.PublicIP, att.ASN, spectrum.prefix, spectrum.ASN)
	}
}

func TestAttachDistributions(t *testing.T) {
	r, rng := newReg(3)
	m := Market{City: "bigcity", ISPs: r.ISPs()[:3]} // Spectrum, Comcast, Verizon
	// public counts the public lines per provider name.
	public := make(map[string]int)
	nated := 0
	for i := 0; i < 5000; i++ {
		a := attach(r, m, rng)
		if a.NATed {
			nated++
			if a.PublicIP.IsValid() {
				t.Fatal("NAT'd attachment has a public IP")
			}
		} else {
			if !a.PublicIP.IsValid() {
				t.Fatal("public attachment missing IP")
			}
			if a.Port != HotspotPort {
				t.Fatalf("port = %d", a.Port)
			}
			public[a.ISP.Name]++
		}
	}
	// NAT fraction should be near the share-weighted mean (~0.58).
	frac := float64(nated) / 5000
	if frac < 0.5 || frac > 0.68 {
		t.Fatalf("NAT fraction = %v", frac)
	}
	// Public lines follow the calibrated shares: Spectrum > Comcast > Verizon.
	if !(public["Spectrum"] > public["Comcast"] && public["Comcast"] > public["Verizon"] && public["Verizon"] > 0) {
		t.Fatalf("public lines per ISP = %v", public)
	}
}

func TestAttachEmptyMarket(t *testing.T) {
	r, rng := newReg(4)
	a := attach(r, Market{}, rng)
	if !a.NATed || a.ISP != nil {
		t.Fatalf("empty market attachment = %+v", a)
	}
}

func TestAttachCloud(t *testing.T) {
	r, rng := newReg(5)
	counts := map[string]int{}
	for i := 0; i < 500; i++ {
		a := r.AttachCloud(rng)
		if a.NATed || !a.PublicIP.IsValid() {
			t.Fatal("cloud attachment should be public")
		}
		counts[a.ISP.Name]++
	}
	if counts["DigitalOcean"] == 0 || counts["Amazon"] == 0 {
		t.Fatalf("cloud mix = %v", counts)
	}
	if counts["DigitalOcean"] < counts["Amazon"] {
		t.Fatalf("DigitalOcean (%d) should dominate Amazon (%d) per the paper", counts["DigitalOcean"], counts["Amazon"])
	}
}

func TestBuildMarketSizes(t *testing.T) {
	r, rng := newReg(6)
	small := r.BuildMarket("village", "US", 20_000, rng)
	if len(small.ISPs) != 1 {
		t.Fatalf("small city market = %d ISPs", len(small.ISPs))
	}
	big := r.BuildMarket("metropolis", "US", 5_000_000, rng)
	if len(big.ISPs) < 3 {
		t.Fatalf("big city market = %d ISPs", len(big.ISPs))
	}
	// No cloud providers in residential markets.
	for _, isp := range big.ISPs {
		if isp.Kind == Cloud {
			t.Fatal("cloud ISP in a city market")
		}
	}
	// Unknown country falls back to the global pool.
	exotic := r.BuildMarket("somewhere", "ZZ", 50_000, rng)
	if len(exotic.ISPs) == 0 {
		t.Fatal("no fallback providers")
	}
}

func TestMarketsDiffer(t *testing.T) {
	r, rng := newReg(7)
	singles := 0
	n := 500
	for i := 0; i < n; i++ {
		pop := 10_000
		if i%5 == 0 {
			pop = 1_000_000
		}
		m := r.BuildMarket("city", "US", pop, rng)
		if len(m.ISPs) == 1 {
			singles++
		}
	}
	// Around §6.1's 40% single-ASN cities: our mix of small cities
	// should give a large single-provider fraction.
	if singles < n/4 {
		t.Fatalf("only %d/%d single-provider cities", singles, n)
	}
}

func TestKindString(t *testing.T) {
	if Cable.String() != "cable" || Cloud.String() != "cloud" || Kind(42).String() != "kind_42" {
		t.Fatal("Kind strings wrong")
	}
}
