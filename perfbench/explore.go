package main

import (
	"container/list"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/fed"
)

// The explore workload is read-only serving at a fixed tip: the
// explorer's in-memory stack (etl.FromChain → MeasureStore → Live →
// a supervised region-partitioned federation) answering the eight
// cmd/fedload query classes from one closed-loop client.

var exploreClasses = []string{
	"count-full", "mix-full", "count-type", "count-window",
	"count-region", "actor-txns", "txns-window", "topk-actors",
}

// querySpans names each class's query span.
var querySpans = func() []string {
	out := make([]string, len(exploreClasses))
	for i, c := range exploreClasses {
		out[i] = "fed.query." + c
	}
	return out
}()

// exploreWeights is how many operations of each class (same order as
// exploreClasses) every block of exploreBlock operations holds. Blocks
// are shuffled, so any prefix of the sequence — the warm-up and the
// measured operations after it — has the same class proportions to
// within one block. The mix is synthetic, not observed traffic: the
// weights were chosen so that the p50 and p99 samples sit away from a
// jump between classes — txns-window misses hold the middle of the
// latency distribution, and top-actors misses and busy accounts'
// actor-txns misses, of similar cost, the slowest stretch. NOTES.md
// records the measured shares.
var exploreWeights = []int{3, 3, 6, 6, 6, 24, 42, 10}

// exploreRepeats is how many of each block's operations of a class
// re-issue a query of that class the router's cache still holds, so
// they are hits; the class's other operations in the block draw a
// query the cache does not hold, so they are misses. The share of
// hits, and with it how much work a run does, is then the same for
// every seed. Classes with a handful of distinct queries (count-full,
// mix-full, count-type, count-region) are drawn freely: they hit
// nearly always and cost microseconds either way. count-window always
// misses.
var exploreRepeats = map[string]int{"count-window": 0, "actor-txns": 6, "txns-window": 13, "topk-actors": 2}

// routerCacheSize is the size of the router's result cache with the
// default Options.CacheSize, which cmd/explorer runs with.
const routerCacheSize = 256

const (
	// exploreOpsPerSecond sets the number of measured operations from
	// --seconds (about one second's worth each on the box NOTES.md
	// describes), so a run issues the same operations from the same
	// cache state whatever the host's speed.
	exploreOpsPerSecond = 120
	exploreBlock        = 100
	// exploreVerify is how many executed operations of each class are
	// checked against fed.Reference after the run.
	exploreVerify = 6
	// Parameter draws (actors, regions, how far back from the tip a
	// window ends) are Zipf(s, v) over the vocabulary, most active or
	// most recent first; zipfV > 1 flattens the head of the actor and
	// window draws.
	zipfS = 1.1
	zipfV = 5
)

type exploreOp struct {
	class  int
	q      fed.Query
	verify bool
}

// vocab is what query parameters are drawn from; actors and regions
// most active first.
type vocab struct {
	tip     int64
	actors  []string
	regions []int
	types   []chain.TxnType
}

// fedloadTypes are the transaction types cmd/fedload's count-type class
// draws from, uniformly.
var fedloadTypes = []chain.TxnType{
	chain.TxnPoCReceipt, chain.TxnPayment, chain.TxnAddGateway,
	chain.TxnAssertLocation, chain.TxnRewards,
}

func vocabOf(blocks []*chain.Block) vocab {
	actorN := map[string]int{}
	regionN := map[int]int{}
	for _, b := range blocks {
		for _, t := range b.Txns {
			regionN[fed.RegionOf(t)]++
			etl.ActorsOf(t, func(a string) {
				if a != "" {
					actorN[a]++
				}
			})
		}
	}
	v := vocab{tip: blocks[len(blocks)-1].Height, types: fedloadTypes}
	for a := range actorN {
		v.actors = append(v.actors, a)
	}
	// The busiest accounts are looked up most, so the cost of a busy
	// account's history shows in actor-txns misses.
	sort.Slice(v.actors, func(i, j int) bool {
		a, b := v.actors[i], v.actors[j]
		return actorN[a] > actorN[b] || (actorN[a] == actorN[b] && a < b)
	})
	for r := range regionN {
		v.regions = append(v.regions, r)
	}
	sort.Slice(v.regions, func(i, j int) bool {
		a, b := v.regions[i], v.regions[j]
		return regionN[a] > regionN[b] || (regionN[a] == regionN[b] && a < b)
	})
	return v
}

// exploreOps builds the seeded operation sequence: n operations in
// shuffled blocks of exploreBlock with exploreWeights per class.
// Parameters are Zipf draws over the vocabulary, busiest actors and
// regions and the most recent windows first. The generator keeps a
// copy of the router's LRU cache (same size, same order of use) to
// give each block exactly exploreRepeats hits per class: a repeat
// picks, uniformly, a query of its class the cache holds; a miss
// re-draws until it finds one the cache does not hold.
func exploreOps(v vocab, seed uint64, n int) []exploreOp {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x6578706c))
	zipf := func(n int, v float64) func() int {
		z := rand.NewZipf(rng, zipfS, v, uint64(max(n, 1)-1))
		return func() int { return int(z.Uint64()) }
	}
	const day, hour = chain.BlocksPerDay, chain.BlocksPerDay / 24
	hours, week := int(v.tip/hour), int(min(7*day, v.tip))
	actor, region := zipf(len(v.actors), zipfV), zipf(len(v.regions), 1)
	hoursBack, minutesBack := zipf(hours, zipfV), zipf(week, zipfV)
	days := func(to, n int64) etl.Range { return etl.Range{From: max(to-n*day+1, 0), To: to} }
	// Count and txns windows end whole hours back anywhere in the
	// chain. Top-actors windows end heights (minutes) back within the
	// last week, so every top-actors miss scans a similar, dense
	// stretch of the chain.
	recent := func() int64 { return v.tip - int64(hoursBack())*hour }
	lastWeek := func() int64 { return v.tip - int64(minutesBack()) }
	widths := []int64{1, 7, 30}
	draw := func(class int) fed.Query {
		switch exploreClasses[class] {
		case "count-full":
			return fed.Query{Kind: fed.KindCount, Range: etl.All()}
		case "mix-full":
			return fed.Query{Kind: fed.KindMix, Range: etl.All()}
		case "count-type":
			return fed.Query{Kind: fed.KindCount, Range: etl.All(),
				Filter: etl.Filter{Types: []chain.TxnType{v.types[rng.Intn(len(v.types))]}}}
		case "count-window":
			return fed.Query{Kind: fed.KindCount, Range: days(recent(), widths[rng.Intn(len(widths))])}
		case "count-region":
			return fed.Query{Kind: fed.KindCount, Range: etl.All(), HasRegion: true, Region: v.regions[region()]}
		case "actor-txns":
			return fed.Query{Kind: fed.KindTxns, Range: etl.All(), Limit: 100,
				Filter: etl.Filter{Actors: []string{v.actors[actor()]}}}
		case "txns-window":
			return fed.Query{Kind: fed.KindTxns, Range: days(recent(), 1), Limit: 100}
		default: // topk-actors
			return fed.Query{Kind: fed.KindTopActors, Range: days(lastWeek(), 1), K: 10}
		}
	}
	type keyed struct {
		key string
		q   fed.Query
	}
	cache := newLRU(routerCacheSize)
	held := make([][]keyed, len(exploreClasses)) // per class, the queries the cache holds
	const tries = 1000
	next := func(class int, repeat bool) keyed {
		if repeat {
			// Forget the queries the cache has evicted since.
			h := held[class][:0]
			for _, k := range held[class] {
				if cache.has(k.key) {
					h = append(h, k)
				}
			}
			held[class] = h
			if len(h) > 0 {
				return h[rng.Intn(len(h))]
			}
			// Nothing of this class is cached yet (the first blocks of
			// the sequence, which are the warm-up): a miss instead.
		}
		q := draw(class)
		k := keyed{queryKey(q), q}
		if _, quota := exploreRepeats[exploreClasses[class]]; quota {
			for i := 0; i < tries && cache.has(k.key); i++ {
				q = draw(class)
				k = keyed{queryKey(q), q}
			}
		}
		if !cache.has(k.key) {
			held[class] = append(held[class], k)
		}
		return k
	}

	type slot struct {
		class  int
		repeat bool
	}
	var block []slot
	for c, w := range exploreWeights {
		for i := 0; i < w; i++ {
			block = append(block, slot{c, i < exploreRepeats[exploreClasses[c]]})
		}
	}
	ops := make([]exploreOp, 0, n)
	for len(ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		marked := make([]bool, len(exploreClasses))
		for _, s := range block {
			k := next(s.class, s.repeat)
			cache.use(k.key)
			ops = append(ops, exploreOp{class: s.class, q: k.q, verify: !marked[s.class]})
			marked[s.class] = true
		}
	}
	return ops[:n]
}

// queryKey identifies a query the way the router's cache does for the
// queries exploreOps draws, each of which names at most one type and
// one actor.
func queryKey(q fed.Query) string { return fmt.Sprintf("%+v", q) }

// lru mirrors the router's result cache: a fixed number of entries,
// least recently used evicted first.
type lru struct {
	size  int
	order *list.List // front: most recently used
	at    map[string]*list.Element
}

func newLRU(size int) *lru {
	return &lru{size: size, order: list.New(), at: map[string]*list.Element{}}
}

func (c *lru) has(k string) bool { _, ok := c.at[k]; return ok }

func (c *lru) use(k string) {
	if e, ok := c.at[k]; ok {
		c.order.MoveToFront(e)
		return
	}
	c.at[k] = c.order.PushFront(k)
	if c.order.Len() > c.size {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.at, old.Value.(string))
	}
}

// exploreEnv is one set-up of the explorer's in-memory stack.
type exploreEnv struct {
	world   *peoplesnet.World
	study   *peoplesnet.Study
	live    *peoplesnet.LiveStudy
	cluster *fed.Cluster
}

func (e *exploreEnv) close() {
	if e == nil {
		return
	}
	e.cluster.Close()
	e.live.Close()
}

// buildExplore is cmd/explorer's start-up without the HTTP listener.
func buildExplore(cfg config, op, root int) (*exploreEnv, error) {
	tr := cfg.tr
	sp := tr.begin(op, "simnet.generate", root)
	world, err := peoplesnet.Simulate(cfg.world(cfg.worldSeed))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// Every catch-up starts from a collected heap, so set-up time does
	// not depend on where the generator left the GC.
	runtime.GC()
	tip := world.Chain.Height()

	sp = tr.begin(op, "etl.index", root)
	store := etl.FromChain(world.Chain)
	tr.end(sp)

	sp = tr.begin(op, "core.measure", root)
	study := peoplesnet.MeasureStore(store, world)
	tr.end(sp)

	sp = tr.begin(op, "live.attach", root)
	lv := peoplesnet.Live(store, world, peoplesnet.DefaultMeasureOptions())
	ok := waitUntil(time.Minute, func() bool { return lv.Height() >= tip })
	tr.end(sp)
	if !ok {
		lv.Close()
		return nil, fmt.Errorf("live study stuck at height %d of %d", lv.Height(), tip)
	}

	sp = tr.begin(op, "fed.catchup", root)
	cl, err := startCluster(world.Chain, tip)
	tr.end(sp)
	if err != nil {
		lv.Close()
		return nil, err
	}
	return &exploreEnv{world: world, study: study, live: lv, cluster: cl}, nil
}

// startCluster is cmd/explorer's federation: four region shards,
// 10 s per-shard timeout, 64-block lag budget, the default 256-entry
// result cache, supervised, caught up to tip.
func startCluster(c *chain.Chain, tip int64) (*fed.Cluster, error) {
	cl := fed.FollowChain(c, fed.ByRegion(4), fed.Options{PerShardTimeout: 10 * time.Second, LagBudget: 64})
	cl.Supervise(fed.SupervisorOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.WaitHeight(ctx, tip); err != nil {
		cl.Close()
		return nil, fmt.Errorf("federation catch-up: %w", err)
	}
	return cl, nil
}

// executed is a served answer kept for checking after the run.
type executed struct {
	op  exploreOp
	res *fed.Result
}

func runExplore(cfg config) (*outcome, error) {
	env, setups, err := repeatSetup(cfg.tr,
		func(op, root int) (*exploreEnv, error) { return buildExplore(cfg, op, root) },
		func(e *exploreEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	blocks := env.world.Chain.Blocks()
	n := exploreOpsPerSecond * cfg.seconds
	// Whole blocks, so the measured operations hold exactly
	// exploreWeights and exploreRepeats per block.
	warm := n / warmUpShare / exploreBlock * exploreBlock
	ops := exploreOps(vocabOf(blocks), cfg.seed, warm+n)
	warmUp(env.cluster, ops[:warm])
	out, kept := serveExplore(cfg, env.cluster, ops[warm:])
	out.setups = setups
	verifyExplore(out, kept, func(q fed.Query) *fed.Result { return fed.Reference(blocks, q) })
	return out, nil
}

// warmUp issues ops, untimed, so that the router cache holds its
// steady-state contents when measuring begins.
func warmUp(cl *fed.Cluster, ops []exploreOp) {
	for _, op := range ops {
		// An error here recurs, and is counted, in the measured phase.
		_, _ = cl.Query(context.Background(), op.q)
	}
}

// serveExplore is the measured phase: one closed-loop client issuing
// ops in order. It returns the answers of the operations marked for
// verification.
//
// Nothing is ingested at a fixed tip, so explore's freshness samples
// are its txns-window cache misses: the time a client waits to see the
// transactions of a recent day that the router has not served before,
// computed by the shards at the tip.
func serveExplore(cfg config, cl *fed.Cluster, ops []exploreOp) (*outcome, []executed) {
	tr := cfg.tr
	out := &outcome{layer: map[string]float64{}}
	ctx := context.Background()
	var kept []executed
	var labels []string
	var fannedOut, planned, rows int
	var precision float64
	var routerElapsed []time.Duration
	cache0 := cl.Router().CacheStats()

	ph := startPhase()
	for i, op := range ops {
		class := exploreClasses[op.class]
		root := tr.begin(i, "bench.op", -1)
		if tr != nil {
			sp := tr.begin(i, "fed.plan", root)
			cl.Plan(op.q)
			tr.end(sp)
		}
		sp := tr.begin(i, querySpans[op.class], root)
		start := time.Now()
		res, err := cl.Query(ctx, op.q)
		lat := time.Since(start)
		tr.end(sp)
		tr.end(root)

		out.ops++
		out.lat = append(out.lat, lat)
		switch {
		case err != nil:
			out.fail("%s: %v", class, err)
			labels = append(labels, class)
			continue
		case len(res.Missing) > 0 || len(res.Stale) > 0:
			out.fail("%s: degraded answer (missing %v, stale %v)", class, res.Missing, res.Stale)
		}
		if res.Cached {
			labels = append(labels, "hit")
		} else {
			labels = append(labels, class)
			if class == "txns-window" {
				out.fresh = append(out.fresh, lat)
			}
			fannedOut++
			planned += len(res.Planned)
			precision += res.Precision()
			rows += rowsOf(res)
			routerElapsed = append(routerElapsed, res.Elapsed)
		}
		if op.verify {
			kept = append(kept, executed{op: op, res: res})
		}
	}
	out.phase = ph.stop()

	cache := cl.Router().CacheStats()
	hits, misses := cache.Hits-cache0.Hits, cache.Misses-cache0.Misses
	out.layer["fed.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	if fannedOut > 0 {
		out.layer["fed.routing_precision"] = precision / float64(fannedOut)
		out.layer["fed.shards_planned"] = float64(planned) / float64(fannedOut)
		out.layer["fed.rows_returned"] = float64(rows) / float64(fannedOut)
	}
	out.layer["fed.router_elapsed.p50_ms"] = ms(nearestRank(routerElapsed, 50).Value)
	if tr != nil {
		out.layer["fed.plan_us"] = us(nearestRank(tr.durations("fed.plan", false), 50).Value)
	}
	out.notes = append(out.notes, fmt.Sprintf("explore: %d ops, cache hits %d misses %d; latency %s",
		out.ops, hits, misses, classShares(out.lat, labels, 50, 99)))
	return out, kept
}

// rowsOf counts the rows an answer carries.
func rowsOf(r *fed.Result) int {
	return 1 + len(r.Mix) + len(r.TopActors) + len(r.Txns)
}

// verifyExplore checks up to exploreVerify kept answers per class
// against the reference; each wrong one counts as a failed operation.
func verifyExplore(out *outcome, kept []executed, ref func(fed.Query) *fed.Result) {
	checked := make([]int, len(exploreClasses))
	for _, k := range kept {
		if checked[k.op.class] >= exploreVerify {
			continue
		}
		checked[k.op.class]++
		if got, want := answerOf(k.op.q, k.res), answerOf(k.op.q, ref(k.op.q)); got != want {
			out.fail("%s %+v: answer %.120s, reference %.120s", exploreClasses[k.op.class], k.op.q, got, want)
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("explore: checked %v answers per class against fed.Reference", checked))
}

// answerOf renders the fields of a result that the query's kind
// defines, in a canonical form (fmt prints maps in key order).
func answerOf(q fed.Query, r *fed.Result) string {
	switch q.Kind {
	case fed.KindCount:
		return fmt.Sprint(r.Count)
	case fed.KindMix:
		return fmt.Sprint(r.Mix)
	case fed.KindTopActors:
		return fmt.Sprint(r.TopActors)
	default:
		s := fmt.Sprint(len(r.Txns), r.HasMore)
		if r.HasMore {
			s += " next=" + r.Next.String()
		}
		for _, t := range r.Txns {
			s += fmt.Sprintf(" %d/%d/%s", t.Height, t.Seq, t.Hash)
		}
		return s
	}
}
