package fed

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// nodeSlot is one shard's stable identity across node incarnations:
// the router addresses the slot, the supervisor swaps the Node behind
// it when a crashed follower is restarted. A slot with a nil node is a
// shard that is down (its last start failed).
type nodeSlot struct {
	id ShardID

	mu  sync.RWMutex
	n   *Node // guarded by mu
	err error // guarded by mu — last start failure while n is nil
}

func (sl *nodeSlot) current() *Node {
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	return sl.n
}

func (sl *nodeSlot) set(n *Node) {
	sl.mu.Lock()
	sl.n = n
	sl.err = nil
	sl.mu.Unlock()
}

func (sl *nodeSlot) fail(err error) {
	sl.mu.Lock()
	sl.n = nil
	sl.err = err
	sl.mu.Unlock()
}

// downErr describes why the slot is unqueryable when no node is up.
func (sl *nodeSlot) downErr() error {
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	if sl.err != nil {
		return fmt.Errorf("fed: shard %d down: %w", sl.id, sl.err)
	}
	return fmt.Errorf("fed: shard %d down", sl.id)
}

// Cluster bundles a partition's worth of in-process shard nodes with
// the router fronting them — the single-binary deployment of the
// federated tier, and the topology cmd/explorer runs.
// With Options.ShardStore set the nodes are durable, and a Supervisor
// (see Supervise) can restart crashed or wedged ones in place.
type Cluster struct {
	part   Partition
	opts   Options
	src    *chain.Chain
	slots  []*nodeSlot
	router *Router

	mu  sync.Mutex
	sup *Supervisor // guarded by mu
}

// FollowChain builds a cluster whose nodes tail a live producer
// chain, one node per partition slice. Nodes ingest concurrently;
// use WaitHeight to synchronize with a known tip.
func FollowChain(c *chain.Chain, part Partition, opts Options) *Cluster {
	n := part.NumShards()
	cl := &Cluster{part: part, opts: opts, src: c}
	shards := make([]Shard, n)
	for i := 0; i < n; i++ {
		sl := &nodeSlot{id: ShardID(i)}
		if node, err := cl.startNode(sl.id); err != nil {
			// The shard stays down (queries report it Missing); an
			// attached supervisor will keep retrying the start.
			sl.fail(err)
		} else {
			sl.set(node)
		}
		cl.slots = append(cl.slots, sl)
		shards[i] = &localShard{sl: sl}
	}
	cl.router = NewRouter(part, shards, opts, c.Height)
	return cl
}

// startNode builds one shard incarnation: (re)open its store, wrap a
// fresh source, start the ingest loop. It is the restart path too —
// the supervisor calls it after a crash, and ShardStore/WrapSource
// are consulted again for the new incarnation.
func (cl *Cluster) startNode(id ShardID) (*Node, error) {
	store, durable, err := cl.openStore(id)
	if err != nil {
		return nil, err
	}
	var src Source = chainSource{Tail: cl.src.Follow(store.Height()), c: cl.src}
	if cl.opts.WrapSource != nil {
		src = cl.opts.WrapSource(id, src)
	}
	return newNode(id, cl.part, src, store, durable), nil
}

// openStore opens the shard's store per Options.ShardStore (nil means
// a fresh in-memory store). A durable open forces every lazy segment
// load immediately (Preload) so damage left by the previous
// incarnation is discovered now, not mid-query; a store with gaps
// cannot serve bit-identical answers — and a follower only re-tails
// past its tip, so it could never refill a middle gap — so the
// directory is wiped and the shard re-ingests cold from the source.
func (cl *Cluster) openStore(id ShardID) (*etl.Store, bool, error) {
	if cl.opts.ShardStore == nil {
		return etl.New(etl.Config{}), false, nil
	}
	dir, cfg := cl.opts.ShardStore(id)
	s, err := etl.Open(dir, cfg)
	if err != nil {
		return nil, false, err
	}
	s.Preload()
	if len(s.Gaps()) > 0 {
		_ = s.Close()
		if err := wipeStoreDir(cfg, dir); err != nil {
			return nil, false, fmt.Errorf("fed: shard %d: wiping damaged store: %w", id, err)
		}
		if s, err = etl.Open(dir, cfg); err != nil {
			return nil, false, err
		}
	}
	return s, true, nil
}

// wipeStoreDir removes the store files in dir so Open starts empty.
// Quarantined segments live in a subdirectory and are left in place
// for forensics; Remove on it fails and is ignored like any other
// best-effort deletion — Open only believes files it can parse.
func wipeStoreDir(cfg etl.Config, dir string) error {
	fs := cfg.FS
	if fs == nil {
		fs = etl.OSFS{}
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		if etl.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, name := range names {
		_ = fs.Remove(dir + "/" + name)
	}
	return nil
}

// Query routes one federated query through the cluster.
func (cl *Cluster) Query(ctx context.Context, q Query) (*Result, error) {
	return cl.router.Query(ctx, q)
}

// Plan exposes the router's shard selection (for precision studies).
func (cl *Cluster) Plan(q Query) []ShardID { return cl.router.Plan(q) }

// Partition returns the cluster's partition.
func (cl *Cluster) Partition() Partition { return cl.part }

// Router returns the cluster's router.
func (cl *Cluster) Router() *Router { return cl.router }

// Supervise attaches a supervisor that health-probes every shard and
// restarts crashed or wedged nodes. At most one supervisor may be
// attached; Close (of the cluster or the supervisor) detaches it.
func (cl *Cluster) Supervise(opts SupervisorOptions) *Supervisor {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.sup != nil {
		return cl.sup
	}
	cl.sup = newSupervisor(cl, opts)
	return cl.sup
}

// Supervisor returns the attached supervisor, or nil.
func (cl *Cluster) Supervisor() *Supervisor {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.sup
}

// Kill crashes one shard's follower in place — the chaos and MTTR
// hook. The node dies with crash semantics (no store flush; only what
// the WAL fsynced survives), exactly like a process death. With a
// supervisor attached the shard restarts and re-tails; without one it
// stays down and queries report it Missing.
func (cl *Cluster) Kill(id ShardID) error {
	if int(id) < 0 || int(id) >= len(cl.slots) {
		return fmt.Errorf("fed: no shard %d", id)
	}
	n := cl.slots[id].current()
	if n == nil {
		return fmt.Errorf("fed: shard %d already down", id)
	}
	n.crash(ErrKilled)
	return nil
}

// Shards snapshots every shard's operational state with lag relative
// to the source tip — the /etl health surface.
func (cl *Cluster) Shards() []ShardInfo {
	tip := cl.src.Height()
	out := make([]ShardInfo, len(cl.slots))
	for i, sl := range cl.slots {
		n := sl.current()
		if n == nil {
			out[i] = ShardInfo{ID: sl.id, Slice: cl.part.Describe(sl.id), Err: sl.downErr().Error()}
			continue
		}
		info := n.Info()
		if lag := tip - info.Tip; lag > 0 {
			info.Lag = lag
		}
		out[i] = info
	}
	return out
}

// WaitHeight blocks until every node's store has ingested through
// height, a node fails, or the context expires. Nodes append every
// upstream height, so store tips are exact progress markers. With a
// supervisor attached, a down or crashed shard is treated as "not
// caught up yet" — it will be restarted and resume — rather than a
// terminal error; the context bounds how long recovery may take.
func (cl *Cluster) WaitHeight(ctx context.Context, height int64) error {
	for {
		supervised := cl.Supervisor() != nil
		caughtUp := true
		for _, sl := range cl.slots {
			n := sl.current()
			if n == nil {
				if !supervised {
					return sl.downErr()
				}
				caughtUp = false
				continue
			}
			if err := n.Err(); err != nil {
				if !supervised {
					return err
				}
				caughtUp = false
				continue
			}
			if n.store.Height() < height {
				caughtUp = false
			}
		}
		if caughtUp {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// Close stops the supervisor (if any), then every node, and returns
// any ingest error.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	sup := cl.sup
	cl.sup = nil
	cl.mu.Unlock()
	if sup != nil {
		sup.Close()
	}
	var errs []error
	for _, sl := range cl.slots {
		n := sl.current()
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
