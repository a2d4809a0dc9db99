package etl

// Equivalence tests for actor scans over rewards: the sealed segments
// answer rewards membership from their rewardMembers indexes, the
// pending buffer and the raw chain from mentionsActor, and every scan
// must agree with a raw-chain scan that applies mentionsActor.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/simnet"
)

// rewardsChain builds a chain whose rewards transactions each pay many
// entries, with three planted actors:
//   - "gw-only" is named only as the Gateway of rewards entries;
//   - "acct-only" is named only as the Account of entries with no
//     Gateway, so every rewards transaction also names "";
//   - "multi" is named by several entries of one transaction, as
//     Account and as Gateway.
//
// Payments run every block between "payer" and "payee-<h%3>", and
// "payee-1" also earns rewards, so a payment and a rewards filter
// meet on one actor. Rewards run on every other block.
func rewardsChain(t testing.TB, nBlocks int) *chain.Chain {
	t.Helper()
	c := chain.NewChain(chain.DefaultGenesis)
	if _, err := c.AppendBlock(0, []chain.Txn{
		&chain.SecurityCoinbase{Payee: "payer", AmountBones: 1_000 * chain.BonesPerHNT},
		&chain.DCCoinbase{Payee: "payer", AmountDC: 1_000_000_000},
	}); err != nil {
		t.Fatalf("setup block: %v", err)
	}
	for h := int64(1); int(h) <= nBlocks; h++ {
		txns := []chain.Txn{&chain.Payment{Payer: "payer", Payee: fmt.Sprintf("payee-%d", h%3), AmountBones: 1}}
		if h%2 == 0 {
			var es []chain.RewardEntry
			for i := 0; i < 40; i++ {
				es = append(es, chain.RewardEntry{
					Account:     fmt.Sprintf("acct-%02d", (int(h)+i*7)%53),
					Gateway:     fmt.Sprintf("hs-%02d", (int(h)*3+i)%61),
					AmountBones: 1,
					Kind:        chain.RewardWitness,
				})
			}
			if h%6 == 0 {
				es[5].Gateway = "gw-only"
			}
			if h%4 == 0 {
				es = append(es, chain.RewardEntry{Account: "acct-only", AmountBones: 2, Kind: chain.RewardConsensus})
			}
			if h%10 == 0 {
				es[1].Account, es[17].Account, es[33].Gateway = "multi", "multi", "multi"
			}
			if h%8 == 0 {
				es[9].Account = "payee-1"
			}
			txns = append(txns, &chain.Rewards{Epoch: h, Entries: es})
		}
		if _, err := c.AppendBlock(h, txns); err != nil {
			t.Fatalf("block %d: %v", h, err)
		}
	}
	return c
}

// appendAll ingests c block by block. Unlike BulkLoad it leaves the
// final partial segment in the pending buffer.
func appendAll(t *testing.T, s *Store, c *chain.Chain) {
	t.Helper()
	for _, b := range c.Blocks() {
		if err := s.Append(b); err != nil {
			t.Fatalf("append %d: %v", b.Height, err)
		}
	}
}

// scanned is one visited transaction, compared field for field.
type scanned struct {
	Height int64
	Txn    chain.Txn
}

// actorScanCase is one query of the equivalence matrix.
type actorScanCase struct {
	r Range
	f Filter
}

func (c actorScanCase) String() string {
	return fmt.Sprintf("range %v actors %q types %v", c.r, c.f.Actors, c.f.Types)
}

// actorScanCases crosses the planted actors with the type masks and
// ranges: whole-chain, ranges that cut segments, and ranges reaching
// the pending buffer. tip is the chain height.
func actorScanCases(tip int64) []actorScanCase {
	actors := [][]string{
		{"gw-only"}, {"acct-only"}, {"multi"}, {"nobody"}, {""},
		{"multi", "payee-1"},
	}
	types := [][]chain.TxnType{
		nil,
		{chain.TxnRewards},
		{chain.TxnRewards, chain.TxnPayment},
		{chain.TxnPayment},
	}
	ranges := []Range{All(), {From: 10, To: 41}, {From: 20, To: 20}, {From: 90, To: tip - 2}, {From: tip - 5, To: -1}}
	var out []actorScanCase
	for _, a := range actors {
		for _, ty := range types {
			for _, r := range ranges {
				out = append(out, actorScanCase{r, Filter{Types: ty, Actors: a}})
			}
		}
	}
	return out
}

// chainActorScan is the reference: a raw-chain scan keeping what the
// range, the type filter and mentionsActor admit.
func chainActorScan(c *chain.Chain, q actorScanCase) []scanned {
	to := q.r.To
	if to < 0 {
		to = c.Height()
	}
	var out []scanned
	c.Scan(func(h int64, t chain.Txn) bool {
		if h < q.r.From || h > to {
			return true
		}
		if len(q.f.Types) > 0 && !slices.Contains(q.f.Types, t.TxnType()) {
			return true
		}
		for _, a := range q.f.Actors {
			if mentionsActor(t, a) {
				out = append(out, scanned{h, t})
				break
			}
		}
		return true
	})
	return out
}

func storeActorScan(s *Store, q actorScanCase) []scanned {
	var out []scanned
	s.Scan(q.r, q.f, func(h int64, t chain.Txn) bool {
		out = append(out, scanned{h, t})
		return true
	})
	return out
}

// requireActorScans runs every case against the store and the chain.
func requireActorScans(t *testing.T, s *Store, c *chain.Chain) {
	t.Helper()
	for _, q := range actorScanCases(c.Height()) {
		got, want := storeActorScan(s, q), chainActorScan(c, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: store visits %d txns, chain %d (or they differ)", q, len(got), len(want))
		}
	}
}

// TestScanActorRewardsIndex: actor scans over sealed segments, which
// test rewards against their membership indexes, equal the raw-chain
// scan for a Gateway-only, an Account-only, a repeated, an absent and
// the empty actor and a two-actor filter, under every type mask. The
// chain's tip lies in the pending buffer.
func TestScanActorRewardsIndex(t *testing.T) {
	c := rewardsChain(t, 105) // heights 0..105: six sealed segments, ten pending blocks
	s := New(Config{SegmentBlocks: 16})
	appendAll(t, s, c)
	if st := s.Stats(); st.Segments != 6 || st.PendingBlocks != 10 || st.SharedPostings == 0 {
		t.Fatalf("store shape %+v, want 6 segments, 10 pending blocks and shared rewards", st)
	}
	requireActorScans(t, s, c)

	// The planted actors hit what they were planted for.
	count := func(actor string) (rewards, maxPerTxn int) {
		c.Scan(func(_ int64, t chain.Txn) bool {
			if r, ok := t.(*chain.Rewards); ok {
				n := 0
				for _, e := range r.Entries {
					if e.Account == actor {
						n++
					}
					if e.Gateway == actor {
						n++
					}
				}
				if n > 0 {
					rewards++
				}
				maxPerTxn = max(maxPerTxn, n)
			}
			return true
		})
		return
	}
	if n, _ := count("gw-only"); n == 0 {
		t.Error("gw-only names no rewards")
	}
	if _, per := count("multi"); per < 3 {
		t.Errorf("multi is named by at most %d entries of one rewards, want >= 3", per)
	}
}

// TestScanActorRewardsIndexDurable runs the same equivalence on a
// reopened store: the scans materialize lazy stubs, most through their
// sidecars and one whose sidecar was damaged and is rebuilt, and the
// tip comes back from the WAL into the pending buffer.
func TestScanActorRewardsIndexDurable(t *testing.T) {
	c := rewardsChain(t, 105)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir, Config{SegmentBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, c)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := filepath.Glob(filepath.Join(dir, "*.idx"))
	if err != nil || len(idx) != 6 {
		t.Fatalf("sidecars %v (%v), want 6", idx, err)
	}
	data := mustRead(t, idx[2])
	if err := writeFileAtomic(OSFS{}, idx[2], data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Config{SegmentBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if h := s2.Health(); h.SegmentsLoaded != 0 || h.Segments != 6 {
		t.Fatalf("reopen: %d of %d segments loaded, want 0 of 6", h.SegmentsLoaded, h.Segments)
	}
	requireActorScans(t, s2, c)
	if h := s2.Health(); h.SegmentsLoaded != 6 || h.SidecarsRebuilt != 1 || len(h.Gaps) != 0 {
		t.Fatalf("after scans: %+v, want 6 loaded segments, one rebuilt sidecar, no gaps", h)
	}
	if st := s2.Stats(); st.PendingBlocks != 10 {
		t.Fatalf("reopened store holds %d pending blocks, want 10", st.PendingBlocks)
	}
}

// TestScanActorRewardsIndexConcurrent: eight goroutines issue
// different actor scans at once on stores whose membership indexes
// are not built yet, in memory and freshly reopened from disk (where
// the stubs load concurrently too). Under -race this checks the lazy
// build publishes safely.
func TestScanActorRewardsIndexConcurrent(t *testing.T) {
	c := rewardsChain(t, 105)
	mem := New(Config{SegmentBlocks: 16})
	appendAll(t, mem, c)
	dir := filepath.Join(t.TempDir(), "store")
	d, err := Open(dir, Config{SegmentBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, d, c)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, Config{SegmentBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	queries := []actorScanCase{
		{All(), Filter{Actors: []string{"gw-only"}}},
		{All(), Filter{Actors: []string{"acct-only"}, Types: []chain.TxnType{chain.TxnRewards}}},
		{All(), Filter{Actors: []string{"multi"}}},
		{All(), Filter{Actors: []string{"nobody"}}},
		{All(), Filter{Actors: []string{""}}},
		{Range{From: 10, To: 70}, Filter{Actors: []string{"multi", "payee-1"}}},
		{All(), Filter{Actors: []string{"payee-1"}, Types: []chain.TxnType{chain.TxnRewards, chain.TxnPayment}}},
		{Range{From: 30, To: -1}, Filter{Actors: []string{"hs-07"}}},
	}
	for name, s := range map[string]*Store{"memory": mem, "reopened": reopened} {
		var wg sync.WaitGroup
		errs := make([]string, len(queries))
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, want := storeActorScan(s, q), chainActorScan(c, q); !reflect.DeepEqual(got, want) {
					errs[i] = fmt.Sprintf("%s %v: store visits %d txns, chain %d (or they differ)", name, q, len(got), len(want))
				}
			}()
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Error(e)
			}
		}
	}
}

// TestRewardMembersMatchActorsOf pins the index to the single
// definition of whom a transaction names: for every rewards
// transaction of SmallWorld(1), the addresses its index resolves are
// ActorsOf's emissions as a multiset, and they are in sorted order, as
// the binary search needs. One segment over the whole chain puts every
// rewards transaction on its shared list.
func TestRewardMembersMatchActorsOf(t *testing.T) {
	res, err := simnet.Generate(simnet.TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	g := buildSegment(res.Chain.Blocks())
	ms := g.rewardIndex()
	if want := int(res.Chain.TxnMix()[chain.TxnRewards]); want == 0 || len(ms) != want {
		t.Fatalf("%d indexes for %d rewards transactions", len(ms), want)
	}
	for _, m := range ms {
		r := g.blocks[m.at.blk].Txns[m.at.txn].(*chain.Rewards)
		where := fmt.Sprintf("rewards at height %d txn %d", g.blocks[m.at.blk].Height, m.at.txn)
		got := make([]string, len(m.refs))
		for i, ref := range m.refs {
			got[i] = memberAddr(r.Entries, ref)
		}
		if !sort.StringsAreSorted(got) {
			t.Fatalf("%s: index not sorted by address", where)
		}
		var want []string
		ActorsOf(r, func(a string) { want = append(want, a) })
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: index resolves %d addresses, ActorsOf emits %d (or they differ)", where, len(got), len(want))
		}
	}
}
