package main

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/fed"
)

func testVocab() vocab {
	v := vocab{tip: 960_000, types: []chain.TxnType{chain.TxnPoCReceipt, chain.TxnPayment, chain.TxnRewards}}
	for i := 0; i < 2000; i++ {
		v.actors = append(v.actors, fmt.Sprintf("actor%04d", i))
	}
	for r := 0; r < fed.NumRegions; r++ {
		v.regions = append(v.regions, r)
	}
	return v
}

func composition(ops []exploreOp) []int {
	n := make([]int, len(exploreClasses))
	for _, op := range ops {
		n[op.class]++
	}
	return n
}

func TestExploreOpsSeeded(t *testing.T) {
	v := testVocab()
	const n = 10 * exploreBlock
	a, b := exploreOps(v, 1, n), exploreOps(v, 1, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different operation lists")
	}
	want := make([]int, len(exploreWeights))
	for i, w := range exploreWeights {
		want[i] = w * n / exploreBlock
	}
	if got := composition(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("class composition %v, want %v", got, want)
	}
	// Every prefix that ends on a block boundary has the same shares.
	if got := composition(a[:exploreBlock]); !reflect.DeepEqual(got, exploreWeights) {
		t.Fatalf("first block composition %v, want %v", got, exploreWeights)
	}
	c := exploreOps(v, 2, n)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same operation list")
	}
	if !reflect.DeepEqual(composition(c), want) {
		t.Fatalf("seed 2 class composition %v, want %v", composition(c), want)
	}
}

// After the first blocks, every block has exactly exploreRepeats hits
// per class in a cache that mirrors the router's, and the other
// operations of those classes miss.
func TestExploreOpsRepeatQuotas(t *testing.T) {
	const blocks = 12
	ops := exploreOps(testVocab(), 5, blocks*exploreBlock)
	c := newLRU(routerCacheSize)
	for b := 0; b < blocks; b++ {
		hits := make([]int, len(exploreClasses))
		for _, op := range ops[b*exploreBlock : (b+1)*exploreBlock] {
			k := queryKey(op.q)
			if c.has(k) {
				hits[op.class]++
			}
			c.use(k)
		}
		if b < 2 {
			continue // the warm-up fills the cache
		}
		for class, want := range exploreRepeats {
			i := slices.Index(exploreClasses, class)
			if hits[i] != want {
				t.Errorf("block %d: %d %s hits, want %d", b, hits[i], class, want)
			}
		}
	}
}

func TestNearestRank(t *testing.T) {
	var samples []time.Duration
	for i := 10; i >= 1; i-- {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{
		{50, 5 * time.Millisecond},  // rank ceil(5.0) = 5
		{51, 6 * time.Millisecond},  // rank ceil(5.1) = 6: no interpolation
		{90, 9 * time.Millisecond},  // rank 9
		{99, 10 * time.Millisecond}, // rank ceil(9.9) = 10
		{1, 1 * time.Millisecond},
	} {
		q := nearestRank(samples, c.p)
		if q.Value != c.want || q.N != 10 {
			t.Errorf("p%v = %v over %d samples, want %v over 10", c.p, q.Value, q.N, c.want)
		}
	}
	if q := nearestRank(samples[:2], 50); q.Value != 9*time.Millisecond || q.N != 2 {
		t.Errorf("p50 of {10ms, 9ms} = %v over %d, want the lower sample 9ms over 2", q.Value, q.N)
	}
	if q := nearestRank(nil, 50); q.N != 0 || q.Value != 0 {
		t.Errorf("empty input gave %+v", q)
	}
	if samples[0] != 10*time.Millisecond {
		t.Error("nearestRank reordered its input")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Op: 0, Name: "bench.op", Start: 0, End: 100, Parent: -1},
		{Op: 0, Name: "etl.follow", Start: 10, End: 40, Parent: 0},
		{Op: 0, Name: "fed.wait", Start: 30, End: 60, Parent: 0}, // overlaps the previous child
		{Op: 0, Name: "live.snapshot", Start: 80, End: 90, Parent: 0},
	}}
	self := tr.selfTimes()
	if want := []time.Duration{40, 30, 30, 10}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	layers := tr.layerSelf()
	if layers["bench"] != 40 || layers["etl"] != 30 || layers["fed"] != 30 || layers["live"] != 10 {
		t.Fatalf("layer self times %v", layers)
	}
}

func TestDigestIgnoresIdentityAndMapOrder(t *testing.T) {
	type rec struct {
		N    *int
		M    map[string]float64
		hide []string
	}
	one, two := 1, 1
	a := rec{N: &one, M: map[string]float64{"a": 1, "b": 2, "c": 3}, hide: []string{"x"}}
	b := rec{N: &two, M: map[string]float64{"c": 3, "b": 2, "a": 1}, hide: []string{"x"}}
	if digest(a) != digest(b) {
		t.Fatal("equal contents behind different pointers digest differently")
	}
	b.M["b"] = 2.0000000000000004 // one ulp
	if digest(a) == digest(b) {
		t.Fatal("a one-ulp difference did not change the digest")
	}
	b.M["b"], b.hide = 2, []string{"y"}
	if digest(a) == digest(b) {
		t.Fatal("an unexported field is not part of the digest")
	}
}

// smallConfig runs workloads on the 1/20-scale world.
func smallConfig() config {
	return config{seed: 3, worldSeed: 3, seconds: 1, world: peoplesnet.SmallWorld}
}

func TestCorruptedReferenceFailsExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a world")
	}
	cfg := smallConfig()
	env, err := buildExplore(cfg, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	blocks := env.world.Chain.Blocks()
	ops := exploreOps(vocabOf(blocks), cfg.seed, 2*exploreBlock)
	ref := func(q fed.Query) *fed.Result { return fed.Reference(blocks, q) }

	out, kept := serveExplore(cfg, env.cluster, ops)
	verifyExplore(out, kept, ref)
	if out.failed != 0 || endToEnd(out)["ok_frac"] != 1 {
		t.Fatalf("true reference: %d of %d failed: %v", out.failed, out.ops, out.notes)
	}

	out, kept = serveExplore(cfg, env.cluster, ops)
	verifyExplore(out, kept, func(q fed.Query) *fed.Result {
		r := ref(q)
		r.Count++
		return r
	})
	if out.failed == 0 || endToEnd(out)["ok_frac"] >= 1 {
		t.Fatalf("corrupted reference: ok_frac %v with %d failures", endToEnd(out)["ok_frac"], out.failed)
	}
}

func TestCorruptedReferenceFailsFollow(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a world")
	}
	cfg := smallConfig()
	env, err := buildFollow(cfg, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	out, kept := followChain(cfg, env)
	if out.ops != followBlocksPerSecond*cfg.seconds || len(out.fresh) != out.ops {
		t.Fatalf("measured %d appends with %d freshness samples, want %d", out.ops, len(out.fresh), followBlocksPerSecond*cfg.seconds)
	}
	blocks := env.producer.Blocks()
	verifyDashboard(out, blocks, kept, fed.Reference)
	if out.failed != 0 {
		t.Fatalf("true reference: %d failed: %v", out.failed, out.notes)
	}
	verifyDashboard(out, blocks, kept, func(b []*chain.Block, q fed.Query) *fed.Result {
		r := fed.Reference(b, q)
		r.TopActors, r.Txns, r.Count = nil, nil, r.Count+1
		return r
	})
	if out.failed == 0 || endToEnd(out)["ok_frac"] >= 1 {
		t.Fatalf("corrupted reference: %d of %d kept answers failed, ok_frac %v", out.failed, len(kept), endToEnd(out)["ok_frac"])
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "explore", "--seconds", "0"},
		{"--workload", "explore", "--trace", "2"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run %v exited 0", args)
		}
	}
	if _, err := loadSpec("no-such-file.json"); err == nil {
		t.Error("a missing benchmark definition loaded")
	}
}

// BenchmarkSpan is the cost tracing adds per span: one begin and end
// pair on a live tracer.
func BenchmarkSpan(b *testing.B) {
	tr := newTracer()
	for i := 0; i < b.N; i++ {
		tr.end(tr.begin(i, "fed.query.count-full", -1))
	}
}
