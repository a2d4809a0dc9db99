package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"peoplesnet"
	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/fed"
)

// The follow workload is writes beside reads: cmd/explorer's -store
// path without the disk. A producer chain holds every block but the
// chain's final stretch; an in-memory etl store follows it, a live
// study follows the store, and a supervised region-4 cluster follows
// the producer. Each operation appends one held-back block, waits
// until every consumer shows it, then refreshes a dashboard.

const (
	// followBlocksPerSecond sets the number of held-back blocks from
	// --seconds, so the operation sequence depends only on the world
	// and the command line, never on how fast the host is.
	followBlocksPerSecond = 100
	// snapshotEvery: one operation in snapshotEvery also renders a live
	// snapshot. Those operations (1/16 = 6.25% of all) are the slowest
	// class, so latency_p99_ms lies inside them.
	snapshotEvery = 16
	// followVerifyEvery: the dashboard answers of every
	// followVerifyEvery-th operation are kept and checked.
	followVerifyEvery = 64
	// visibleTimeout bounds the wait for one block to reach every
	// consumer; passing it fails the operation and ends the run.
	visibleTimeout = 30 * time.Second
)

// dashboard is the refresh issued after each append: recent-window
// reads that miss the router cache because the tip just moved.
var dashboard = []struct {
	class, span string
	query       func(tip int64) fed.Query
}{
	{"count-window", "fed.query.count-window", func(tip int64) fed.Query {
		return fed.Query{Kind: fed.KindCount, Range: etl.Range{From: tip - chain.BlocksPerDay + 1, To: tip}}
	}},
	{"txns-window", "fed.query.txns-window", func(tip int64) fed.Query {
		return fed.Query{Kind: fed.KindTxns, Range: etl.Range{From: tip - chain.BlocksPerDay + 1, To: tip}, Limit: 100}
	}},
	{"topk-actors", "fed.query.topk-actors", func(tip int64) fed.Query {
		return fed.Query{Kind: fed.KindTopActors, Range: etl.Range{From: tip - 3*chain.BlocksPerDay/24 + 1, To: tip}, K: 10}
	}},
}

type followEnv struct {
	world    *peoplesnet.World
	producer *chain.Chain
	held     []*chain.Block // warm-up blocks first, then the measured ones
	store    *etl.Store
	follower *etl.Follower
	live     *peoplesnet.LiveStudy
	cluster  *fed.Cluster
}

func (e *followEnv) close() {
	if e == nil {
		return
	}
	e.cluster.Close()
	e.live.Close()
	e.follower.Close()
}

func buildFollow(cfg config, op, root int) (*followEnv, error) {
	tr := cfg.tr
	sp := tr.begin(op, "simnet.generate", root)
	world, err := peoplesnet.Simulate(cfg.world(cfg.worldSeed))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	blocks := world.Chain.Blocks()
	n := followBlocksPerSecond * cfg.seconds
	n += n / warmUpShare // the first ones warm the consumers up, untimed
	if n >= len(blocks) {
		return nil, fmt.Errorf("%d blocks to hold back, chain has %d", n, len(blocks))
	}
	env := &followEnv{world: world, held: blocks[len(blocks)-n:]}

	sp = tr.begin(op, "chain.replay", root)
	env.producer = chain.NewChain(world.Chain.Genesis)
	// The same rule the simulator's producer runs with (simnet.Generate),
	// or the replay rejects challenges the source chain accepted.
	env.producer.Ledger().SetPoCInterval(1)
	for _, b := range blocks[:len(blocks)-n] {
		if _, err := env.producer.AppendBlock(b.Height, b.Txns); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	tr.end(sp)
	tip := env.producer.Height()

	sp = tr.begin(op, "etl.index", root)
	env.store = etl.New(etl.Config{})
	err = env.store.BulkLoad(env.producer)
	if err == nil {
		env.follower = env.store.FollowChain(env.producer)
	}
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}

	sp = tr.begin(op, "live.attach", root)
	env.live = peoplesnet.Live(env.store, world, peoplesnet.DefaultMeasureOptions())
	ok := waitUntil(time.Minute, func() bool { return env.live.Height() >= tip })
	tr.end(sp)
	if !ok {
		env.live.Close()
		env.follower.Close()
		return nil, fmt.Errorf("live study stuck at height %d of %d", env.live.Height(), tip)
	}

	sp = tr.begin(op, "fed.catchup", root)
	env.cluster, err = startCluster(env.producer, tip)
	tr.end(sp)
	if err != nil {
		env.live.Close()
		env.follower.Close()
		return nil, err
	}
	return env, nil
}

// dashAnswer is a dashboard answer kept for checking after the run.
type dashAnswer struct {
	tip int64
	q   fed.Query
	res *fed.Result
}

func runFollow(cfg config) (*outcome, error) {
	env, setups, err := repeatSetup(cfg.tr,
		func(op, root int) (*followEnv, error) { return buildFollow(cfg, op, root) },
		func(e *followEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	out, kept := followChain(cfg, env)
	out.setups = setups
	verifyFollow(out, env, kept)
	return out, nil
}

// followChain is the measured phase.
func followChain(cfg config, env *followEnv) (*outcome, []dashAnswer) {
	out := &outcome{layer: map[string]float64{}}
	ctx := context.Background()
	expired, cancel := context.WithCancel(ctx)
	cancel() // WaitHeight on a cancelled context is a non-blocking probe
	var kept []dashAnswer
	cache0 := env.cluster.Router().CacheStats()

	warm := len(env.held) / (warmUpShare + 1)
	ph := startPhase()
	for j, b := range env.held {
		// The first warm appends run the same steps untimed; op ids
		// and samples start after them.
		i := j - warm
		if i == 0 {
			*out = outcome{layer: out.layer, failed: out.failed, notes: out.notes}
			kept = nil
			cache0 = env.cluster.Router().CacheStats()
			ph = startPhase()
		}
		tr := cfg.tr
		if i < 0 {
			tr = nil
		}
		root := tr.begin(i, "bench.op", -1)
		start := time.Now()
		sp := tr.begin(i, "chain.append", root)
		_, err := env.producer.AppendBlock(b.Height, b.Txns)
		tr.end(sp)
		appended := time.Now()
		out.ops++
		if err != nil {
			out.fail("append %d: %v", b.Height, err)
			tr.end(root)
			break
		}

		// Poll every consumer until each shows the block, noting when
		// each first did.
		var storeAt, liveAt, fedAt time.Time
		ok := waitUntil(visibleTimeout, func() bool {
			now := time.Now()
			if storeAt.IsZero() && env.store.Height() >= b.Height {
				storeAt = now
			}
			if liveAt.IsZero() && env.live.Height() >= b.Height {
				liveAt = now
			}
			if fedAt.IsZero() && env.cluster.WaitHeight(expired, b.Height) == nil {
				fedAt = now
			}
			return !storeAt.IsZero() && !liveAt.IsZero() && !fedAt.IsZero()
		})
		if !ok {
			out.fail("block %d not visible everywhere after %s (store %v live %v fed %v)",
				b.Height, visibleTimeout, !storeAt.IsZero(), !liveAt.IsZero(), !fedAt.IsZero())
			tr.end(root)
			break
		}
		visible := maxTime(storeAt, liveAt, fedAt)
		out.fresh = append(out.fresh, visible.Sub(start))
		tr.add(i, "etl.follow", root, appended, storeAt)
		tr.add(i, "live.apply", root, storeAt, maxTime(storeAt, liveAt))
		tr.add(i, "fed.wait", root, appended, fedAt)

		failed := false
		for _, d := range dashboard {
			q := d.query(b.Height)
			sp := tr.begin(i, d.span, root)
			res, err := env.cluster.Query(ctx, q)
			tr.end(sp)
			switch {
			case err != nil:
				out.fail("%s at %d: %v", d.class, b.Height, err)
				failed = true
			case len(res.Missing) > 0 || len(res.Stale) > 0:
				out.fail("%s at %d: degraded answer (missing %v, stale %v)", d.class, b.Height, res.Missing, res.Stale)
				failed = true
			case i >= 0 && (i%followVerifyEvery == 0 || j == len(env.held)-1):
				kept = append(kept, dashAnswer{tip: b.Height, q: q, res: res})
			}
			if failed {
				break
			}
		}
		if j%snapshotEvery == snapshotEvery-1 {
			sp := tr.begin(i, "live.snapshot", root)
			env.live.Snapshot()
			tr.end(sp)
		}
		out.lat = append(out.lat, time.Since(start))
		tr.end(root)
	}
	out.phase = ph.stop()

	cache := env.cluster.Router().CacheStats()
	hits, misses := cache.Hits-cache0.Hits, cache.Misses-cache0.Misses
	out.layer["fed.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	out.notes = append(out.notes, fmt.Sprintf("follow: %d warm-up appends, then %d measured (heights %d..%d), cache hits %d misses %d",
		warm, out.ops, env.held[warm].Height, env.held[len(env.held)-1].Height, hits, misses))
	return out, kept
}

func maxTime(ts ...time.Time) time.Time {
	m := ts[0]
	for _, t := range ts[1:] {
		if t.After(m) {
			m = t
		}
	}
	return m
}

// verifyFollow checks, after the last block, the kept dashboard
// answers and the live study.
func verifyFollow(out *outcome, env *followEnv, kept []dashAnswer) {
	verifyDashboard(out, env.producer.Blocks(), kept, fed.Reference)
	verifyLive(out, env)
}

// verifyDashboard checks each kept answer against the reference over
// the producer's blocks up to the tip it was served at.
func verifyDashboard(out *outcome, blocks []*chain.Block, kept []dashAnswer, ref func([]*chain.Block, fed.Query) *fed.Result) {
	for _, k := range kept {
		n := sort.Search(len(blocks), func(i int) bool { return blocks[i].Height > k.tip })
		if got, want := answerOf(k.q, k.res), answerOf(k.q, ref(blocks[:n], k.q)); got != want {
			out.fail("dashboard %+v at %d: answer %.120s, reference %.120s", k.q, k.tip, got, want)
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("follow: checked %d dashboard answers against fed.Reference", len(kept)))
}

// verifyLive compares the live study's snapshot at the final tip with
// a batch MeasureStore of the follower store, and requires the live
// study to report no lag and no replica apply errors.
func verifyLive(out *outcome, env *followEnv) {
	tip := env.producer.Height()
	if !waitUntil(visibleTimeout, func() bool { return env.live.Height() >= tip && env.store.Height() >= tip }) {
		out.fail("consumers never reached the final tip %d", tip)
		return
	}
	sn := env.live.Snapshot()
	batch := peoplesnet.MeasureStore(env.store, env.world)
	for _, c := range []struct {
		name      string
		live, bat any
	}{
		{"summary", sn.Summary, batch.Summary},
		{"moves", sn.Moves, batch.Moves},
		{"growth", sn.Growth, batch.Growth},
		{"ownership", sn.Ownership, batch.Ownership},
		{"resale", sn.Resale, batch.Resale},
		{"traffic", sn.Traffic, batch.Traffic},
	} {
		if digest(c.live) != digest(c.bat) {
			out.fail("live %s at height %d differs from batch MeasureStore", c.name, sn.Height)
		}
	}
	if sn.Height != tip || sn.LagBlocks != 0 || sn.ApplyErrs != 0 {
		out.fail("live snapshot height %d lag %d apply errors %d, want height %d lag 0 errors 0", sn.Height, sn.LagBlocks, sn.ApplyErrs, tip)
	}
	out.notes = append(out.notes, fmt.Sprintf("follow: compared the live snapshot at %d with batch MeasureStore", sn.Height))
}
