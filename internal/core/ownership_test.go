package core

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/simnet"
	"peoplesnet/internal/stats"
)

// analyzeOwnershipLedger is the naive §4.3 computation the fold must
// reproduce: walk every hotspot record of a replayed ledger, tally
// owners, then profile the bulk ones. Ties (largest owner, equal fleet
// sizes in Bulk) break toward the smaller address, so the result does
// not depend on the walk's map order.
func analyzeOwnershipLedger(ledger *chain.Ledger, meta map[string]HotspotMeta) OwnershipAnalysis {
	type acc struct {
		hotspots int
		data     int64
		cities   map[string]bool
	}
	type holding struct {
		owner *acc
		addr  string
	}
	owners := make(map[string]*acc)
	var held []holding
	ledger.EachHotspot(func(h *chain.Hotspot) {
		a := owners[h.Owner]
		if a == nil {
			a = &acc{}
			owners[h.Owner] = a
		}
		a.hotspots++
		a.data += h.DataPackets
		held = append(held, holding{a, h.Address})
	})
	for _, hd := range held {
		if hd.owner.hotspots < bulkOwner {
			continue
		}
		if m, ok := meta[hd.addr]; ok {
			if hd.owner.cities == nil {
				hd.owner.cities = make(map[string]bool)
			}
			hd.owner.cities[m.City] = true
		}
	}
	o := OwnershipAnalysis{PerOwner: stats.NewHistogram()}
	for addr, a := range owners {
		o.Owners++
		o.Hotspots += a.hotspots
		o.PerOwner.Observe(a.hotspots)
		if a.hotspots > o.MaxOwned || (a.hotspots == o.MaxOwned && addr < o.MaxOwner) {
			o.MaxOwned = a.hotspots
			o.MaxOwner = addr
		}
		if a.hotspots >= bulkOwner {
			p := OwnerProfile{
				Address:     addr,
				Hotspots:    a.hotspots,
				HNTBones:    ledger.GetAccount(addr).HNTBones,
				DataPackets: a.data,
				Cities:      len(a.cities),
			}
			p.Class = classifyOwner(p)
			o.Bulk = append(o.Bulk, p)
		}
	}
	if o.Owners > 0 {
		o.OwnOneFrac = o.PerOwner.FracExactly(1)
		o.OwnTwoFrac = o.PerOwner.FracExactly(2)
		o.OwnThreeFrac = o.PerOwner.FracExactly(3)
		o.AtMostThree = o.PerOwner.FracAtMost(3)
		o.FiveOrMore = o.PerOwner.FracMoreThan(4)
	}
	sort.Slice(o.Bulk, func(i, j int) bool {
		if o.Bulk[i].Hotspots != o.Bulk[j].Hotspots {
			return o.Bulk[i].Hotspots > o.Bulk[j].Hotspots
		}
		return o.Bulk[i].Address < o.Bulk[j].Address
	})
	return o
}

// foldAgainstOracle applies blocks one at a time to a ledger and to
// an ownership fold, calling check after each with both answers.
func foldAgainstOracle(t *testing.T, l *chain.Ledger, blocks []*chain.Block, meta map[string]HotspotMeta,
	check func(b *chain.Block, got, want OwnershipAnalysis)) {
	t.Helper()
	st := NewOwnershipState(meta)
	for _, b := range blocks {
		for i, txn := range b.Txns {
			if err := l.ApplyTxn(txn, b.Height); err != nil {
				t.Fatalf("block %d txn %d: %v", b.Height, i, err)
			}
			st.ApplyTxn(b.Height, txn)
		}
		got, want := st.Finalize(l), analyzeOwnershipLedger(l, meta)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("height %d: fold diverges from the ledger walk\n fold: %+v\nwalk: %+v", b.Height, got, want)
		}
		check(b, got, want)
	}
}

// TestOwnershipFoldBruteForce pins the ownership fold to the ledger
// walk at every height: of a SmallWorld with resales, and of a
// hand-built chain that steps through the fold's edge cases.
func TestOwnershipFoldBruteForce(t *testing.T) {
	t.Run("small-world", func(t *testing.T) {
		cfg := simnet.TestConfig(9)
		cfg.Days = 140
		cfg.ResaleStartDay = 60 // default 500 would leave no transfers
		w, err := simnet.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := FromSimulation(w)
		l := chain.NewLedger()
		l.SetPoCInterval(w.Chain.Ledger().PoCInterval())
		var sawBulk, sawTransfer bool
		foldAgainstOracle(t, l, w.Chain.Blocks(), d.Meta, func(b *chain.Block, got, _ OwnershipAnalysis) {
			sawBulk = sawBulk || len(got.Bulk) > 0
			for _, txn := range b.Txns {
				sawTransfer = sawTransfer || txn.TxnType() == chain.TxnTransferHotspot
			}
		})
		if !sawBulk || !sawTransfer {
			t.Fatalf("world exercised too little: bulk owners %v, transfers %v", sawBulk, sawTransfer)
		}
	})

	t.Run("hand-built", func(t *testing.T) {
		meta := map[string]HotspotMeta{}
		var txns [][]chain.Txn
		block := func(ts ...chain.Txn) { txns = append(txns, ts) }
		add := func(owner, gw, city string) chain.Txn {
			if city != "" {
				meta[gw] = HotspotMeta{City: city}
			}
			return &chain.AddGateway{Gateway: gw, Owner: owner}
		}
		xfer := func(gw, seller, buyer string) chain.Txn {
			return &chain.TransferHotspot{Gateway: gw, Seller: seller, Buyer: buyer}
		}
		open := func(id string) chain.Txn {
			return &chain.StateChannelOpen{ID: id, Owner: "router", OUI: 1, AmountDC: 1000, ExpireWithin: chain.StateChannelMinBlocks}
		}
		closeSC := func(id string, sums ...chain.SCSummary) chain.Txn {
			return &chain.StateChannelClose{ID: id, Owner: "router", Summaries: sums}
		}
		fleet := func(owner, prefix string, n int, cities ...string) []chain.Txn {
			var out []chain.Txn
			for i := 0; i < n; i++ {
				city := ""
				if i < len(cities) {
					city = cities[i]
				}
				out = append(out, add(owner, fmt.Sprintf("%s%02d", prefix, i), city))
			}
			return out
		}

		block(&chain.DCCoinbase{Payee: "router", AmountDC: 1_000_000},
			&chain.OUIRegistration{OUI: 1, Owner: "router"},
			&chain.SecurityCoinbase{Payee: "bulkB", AmountBones: 500 * chain.BonesPerHNT})
		block(fleet("zeta", "z", 3, "Austin", "Boston", "Austin")...) // 2: zeta alone holds the most
		block(append(fleet("alpha", "a", 3, "Austin", "Denver"),      // 3: a tie at 3 goes to alpha; a02 has no meta
			add("solo", "s00", "Erie"))...)
		block(open("ch1"))
		block(closeSC("ch1", chain.SCSummary{Hotspot: "s00", Packets: 5, DC: 5},
			chain.SCSummary{Hotspot: "z00", Packets: 7, DC: 7})) // 5: summaries before the transfer
		block(xfer("s00", "solo", "alpha")) // 6: solo sells their only hotspot
		block(open("ch2"))
		block(closeSC("ch2", chain.SCSummary{Hotspot: "s00", Packets: 3, DC: 3})) // 8: after it
		block(fleet("bulkB", "b", 10, "Austin", "Boston", "Chicago", "", "Austin")...)
		block(xfer("b00", "bulkB", "alpha"))                                     // 10: bulkB drops below the threshold
		block(append(fleet("bulkA", "k", 10), add("bulkB", "b10", "Denver"))...) // 11: both back at 10
		block(open("ch3"))
		block(closeSC("ch3", chain.SCSummary{Hotspot: "b01", Packets: 40, DC: 40},
			chain.SCSummary{Hotspot: "b03", Packets: 2, DC: 2}))
		block(xfer("a02", "alpha", "zeta"), xfer("b03", "bulkB", "bulkA")) // 14: a hotspot with no meta moves

		c := chain.NewChain(chain.DefaultGenesis)
		for i, ts := range txns {
			if _, err := c.AppendBlock(int64(i+1), ts); err != nil {
				t.Fatalf("build block %d: %v", i+1, err)
			}
		}
		want := map[int64]func(o OwnershipAnalysis) error{
			2: func(o OwnershipAnalysis) error { return expectMax(o, 3, "zeta") },
			3: func(o OwnershipAnalysis) error { return expectMax(o, 3, "alpha") },
			6: func(o OwnershipAnalysis) error {
				if o.Owners != 2 || o.PerOwner.Count(1) != 0 {
					return fmt.Errorf("the seller of a last hotspot stayed an owner: %d owners", o.Owners)
				}
				return expectMax(o, 4, "alpha")
			},
			9: func(o OwnershipAnalysis) error { return expectBulk(o, "bulkB") },
			10: func(o OwnershipAnalysis) error {
				if err := expectBulk(o); err != nil {
					return err
				}
				return expectMax(o, 9, "bulkB")
			},
			11: func(o OwnershipAnalysis) error { return expectBulk(o, "bulkA", "bulkB") },
			13: func(o OwnershipAnalysis) error {
				if b := o.Bulk[1]; b.DataPackets != 42 || b.Cities != 4 || b.Class != LikelyCommercial {
					return fmt.Errorf("bulkB profile %+v, want 42 packets, 4 cities, commercial", b)
				}
				return nil
			},
			14: func(o OwnershipAnalysis) error {
				if err := expectBulk(o, "bulkA"); err != nil {
					return err
				}
				return expectMax(o, 11, "bulkA")
			},
		}
		l := chain.NewLedger()
		foldAgainstOracle(t, l, c.Blocks(), meta, func(b *chain.Block, got, _ OwnershipAnalysis) {
			if f := want[b.Height]; f != nil {
				if err := f(got); err != nil {
					t.Fatalf("height %d: %v", b.Height, err)
				}
			}
		})
	})
}

func expectMax(o OwnershipAnalysis, n int, owner string) error {
	if o.MaxOwned != n || o.MaxOwner != owner {
		return fmt.Errorf("largest owner %s with %d, want %s with %d", o.MaxOwner, o.MaxOwned, owner, n)
	}
	return nil
}

func expectBulk(o OwnershipAnalysis, owners ...string) error {
	var got []string
	for _, b := range o.Bulk {
		got = append(got, b.Address)
	}
	if !reflect.DeepEqual(got, owners) {
		return fmt.Errorf("bulk owners %v, want %v", got, owners)
	}
	return nil
}

// TestOwnershipFoldMatchesLedgerWalkPaperScale compares the batch
// fold with the ledger walk on the paper-scale world. It takes tens of
// seconds, so it runs only with PEOPLESNET_BENCH_SCALE=paper.
func TestOwnershipFoldMatchesLedgerWalkPaperScale(t *testing.T) {
	if os.Getenv("PEOPLESNET_BENCH_SCALE") != "paper" {
		t.Skip("set PEOPLESNET_BENCH_SCALE=paper to run at paper scale")
	}
	w, err := simnet.Generate(simnet.DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	d := FromSimulation(w)
	got, want := d.AnalyzeOwnership(), analyzeOwnershipLedger(w.Chain.Ledger(), d.Meta)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold diverges from the ledger walk\n fold: %+v\nwalk: %+v", got, want)
	}
	t.Logf("%d hotspots, %d owners, %d bulk owners agree", got.Hotspots, got.Owners, len(got.Bulk))
}

// TestTopTradersMatchesSort pins the bounded selection to a full sort
// of every trader and a cut, on a tally full of ties, for every cut
// size around the edges.
func TestTopTradersMatchesSort(t *testing.T) {
	rng := stats.NewRNG(3)
	traders := make(map[string]*TraderProfile)
	for i := 0; i < 60; i++ {
		addr := fmt.Sprintf("w%03d", rng.Intn(1000))
		traders[addr] = &TraderProfile{Address: addr, Bought: rng.Intn(4), Sold: rng.Intn(3)}
	}
	var all []TraderProfile
	for _, tp := range traders {
		all = append(all, *tp)
	}
	sort.Slice(all, func(i, j int) bool { return traderBefore(&all[i], &all[j]) })
	for _, n := range []int{-1, 0, 1, 2, 7, len(all) - 1, len(all), len(all) + 3} {
		want := all
		if n > 0 && n < len(all) {
			want = all[:n]
		}
		if got := topTraders(traders, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: top traders %v, want %v", n, got, want)
		}
	}
	if got := topTraders(map[string]*TraderProfile{}, 5); got != nil {
		t.Fatalf("no traders: %v, want nil", got)
	}
}
