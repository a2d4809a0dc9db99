package fed

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/faultfs"
)

// chaosHarness wires a durable supervised cluster over per-shard
// fault-injecting filesystems: each shard gets its own directory and
// faultfs.FS, and the same FS carries across node incarnations — the
// crash kills the process, the disk survives.
type chaosHarness struct {
	dirs []string
	fss  []*faultfs.FS

	mu    sync.Mutex
	stall map[ShardID]bool // armed: next Next() on the shard blocks until crash
	drop  map[ShardID]bool // armed: next Next() on the shard reports end of stream
}

func newChaosHarness(t testing.TB, shards int, seed int64, torn bool) *chaosHarness {
	t.Helper()
	h := &chaosHarness{stall: map[ShardID]bool{}, drop: map[ShardID]bool{}}
	base := t.TempDir()
	for i := 0; i < shards; i++ {
		h.dirs = append(h.dirs, filepath.Join(base, fmt.Sprintf("shard-%d", i)))
		h.fss = append(h.fss, faultfs.New(etl.OSFS{}, faultfs.Config{
			Seed: seed + int64(i), Crash: true, TornWrite: torn,
		}))
	}
	return h
}

// options builds the cluster options: durable shards over the fault
// filesystems (healed at every restart — the supervised "new process"
// sees a working disk) and no result cache, so every verification
// answer is recomputed from the recovered stores.
func (h *chaosHarness) options() Options {
	return Options{
		PerShardTimeout: time.Minute,
		CacheSize:       -1,
		ShardStore: func(id ShardID) (string, etl.Config) {
			h.fss[id].Heal()
			return h.dirs[id], etl.Config{FS: h.fss[id], SegmentBlocks: 16}
		},
		WrapSource: h.wrap,
	}
}

func (h *chaosHarness) wrap(id ShardID, src Source) Source {
	return &chaosSource{Source: src, h: h, id: id, closed: make(chan struct{})}
}

func (h *chaosHarness) armStall(id ShardID) {
	h.mu.Lock()
	h.stall[id] = true
	h.mu.Unlock()
}

func (h *chaosHarness) armDrop(id ShardID) {
	h.mu.Lock()
	h.drop[id] = true
	h.mu.Unlock()
}

// claim consumes an armed fault so it fires exactly once: the victim
// incarnation trips it, the restarted one runs clean.
func (h *chaosHarness) claim(m map[ShardID]bool, id ShardID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !m[id] {
		return false
	}
	delete(m, id)
	return true
}

// corruptSegment flips one bit in the shard's first sealed segment
// file — silent media damage at rest.
func (h *chaosHarness) corruptSegment(t *testing.T, id ShardID) {
	t.Helper()
	names, err := h.fss[id].ReadDir(h.dirs[id])
	if err != nil {
		t.Fatalf("shard %d readdir: %v", id, err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".seg") {
			if _, err := h.fss[id].CorruptFile(filepath.Join(h.dirs[id], name)); err != nil {
				t.Fatalf("corrupt %s: %v", name, err)
			}
			return
		}
	}
	t.Fatalf("shard %d has no sealed segment to corrupt (names: %v)", id, names)
}

// chaosSource is the fed-layer fault injector: it can stall (Next
// blocks until the supervisor declares the node wedged and crashes
// it) or disconnect (Next reports end of stream, as if the producer
// hung up). BlockAt always passes through — seq recovery sees the
// real source.
type chaosSource struct {
	Source
	h      *chaosHarness
	id     ShardID
	closed chan struct{}
	once   sync.Once
}

func (s *chaosSource) Next() (*chain.Block, bool) {
	if s.h.claim(s.h.drop, s.id) {
		return nil, false
	}
	if s.h.claim(s.h.stall, s.id) {
		<-s.closed
		return nil, false
	}
	return s.Source.Next()
}

func (s *chaosSource) Close() {
	s.once.Do(func() { close(s.closed) })
	s.Source.Close()
}

// fastSupervision shrinks every supervisor interval to test scale.
func fastSupervision() SupervisorOptions {
	return SupervisorOptions{
		ProbeInterval: 2 * time.Millisecond,
		WedgeProbes:   5,
		BackoffBase:   time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
		MaxRestarts:   50,
		HalfOpenAfter: 50 * time.Millisecond,
	}
}

func chaosWait(t *testing.T, cl *Cluster, height int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := cl.WaitHeight(ctx, height); err != nil {
		t.Fatalf("reconvergence to height %d: %v", height, err)
	}
}

// verifyMatrix proves the recovered cluster is bit-identical to the
// raw-chain reference on the full query corpus, with no degradation
// and nothing served from a cache.
func verifyMatrix(t *testing.T, cl *Cluster, blocks []*chain.Block, matrix []Query) {
	t.Helper()
	for i, q := range matrix {
		res, err := cl.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("post-recovery query %d (%s): %v", i, q.Kind, err)
		}
		if len(res.Missing) > 0 || len(res.Gaps) > 0 {
			t.Fatalf("post-recovery query %d (%s): missing=%v gaps=%v", i, q.Kind, res.Missing, res.Gaps)
		}
		if res.Cached {
			t.Fatalf("post-recovery query %d (%s) was served from a cache", i, q.Kind)
		}
		assertSameResult(t, fmt.Sprintf("post-recovery query %d (%s)", i, q.Kind), res, Reference(blocks, q))
	}
}

// chaosFault is one way to hurt shard 0 mid-tail.
type chaosFault struct {
	name string
	torn bool
	arm  func(t *testing.T, h *chaosHarness, cl *Cluster)
}

func chaosFaults() []chaosFault {
	return []chaosFault{
		{name: "kill-mid-tail", arm: func(t *testing.T, _ *chaosHarness, cl *Cluster) {
			if err := cl.Kill(0); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "crash-persist-fault", arm: func(_ *testing.T, h *chaosHarness, _ *Cluster) {
			h.fss[0].FailAt(3)
		}},
		{name: "torn-wal-write", torn: true, arm: func(_ *testing.T, h *chaosHarness, _ *Cluster) {
			h.fss[0].FailAt(3)
		}},
		{name: "bit-flip-sealed-segment", arm: func(t *testing.T, h *chaosHarness, cl *Cluster) {
			// Corrupt first (the file is at rest; the running node never
			// rereads it), then kill: the restart discovers the damage,
			// wipes, and re-ingests cold from the source.
			h.corruptSegment(t, 0)
			if err := cl.Kill(0); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "stalled-shard", arm: func(_ *testing.T, h *chaosHarness, _ *Cluster) {
			h.armStall(0)
		}},
		{name: "producer-disconnect", arm: func(_ *testing.T, h *chaosHarness, _ *Cluster) {
			h.armDrop(0)
		}},
	}
}

// runChaosScenario replays the world into a live chain with a durable
// supervised cluster tailing it, injects the fault at the halfway
// point, finishes the replay, and requires full reconvergence with
// bit-identical answers.
func runChaosScenario(t *testing.T, part Partition, f chaosFault, seed int64) {
	src := testChain(t)
	blocks := src.Blocks()
	matrix := queryMatrix(src)

	h := newChaosHarness(t, part.NumShards(), seed, f.torn)
	live := chain.NewChain(src.Genesis)
	cl := FollowChain(live, part, h.options())
	defer cl.Close()
	sup := cl.Supervise(fastSupervision())

	half := len(blocks) / 2
	for _, b := range blocks[:half] {
		if _, err := live.AppendBlock(b.Height, b.Txns); err != nil {
			t.Fatalf("replay height %d: %v", b.Height, err)
		}
	}
	chaosWait(t, cl, blocks[half-1].Height)

	f.arm(t, h, cl)

	for _, b := range blocks[half:] {
		if _, err := live.AppendBlock(b.Height, b.Txns); err != nil {
			t.Fatalf("replay height %d: %v", b.Height, err)
		}
	}
	chaosWait(t, cl, live.Height())

	verifyMatrix(t, cl, live.Blocks(), matrix)

	st := sup.Status()
	if st[0].Restarts == 0 {
		t.Fatalf("fault %s never forced a restart of shard 0: %+v", f.name, st[0])
	}
	if st[0].State != StateRunning {
		t.Fatalf("shard 0 ended in state %s, want running: %+v", st[0].State, st[0])
	}
}

// TestFedChaosMatrix runs every fault kind against the smoke layout:
// a shard is hurt mid-tail, the supervisor restarts it, and the
// recovered cluster answers the full query corpus bit-identically to
// the reference. Meant to run under -race (make chaos-smoke).
func TestFedChaosMatrix(t *testing.T) {
	for fi, f := range chaosFaults() {
		f := f
		t.Run("region/"+f.name, func(t *testing.T) {
			runChaosScenario(t, ByRegion(4), f, 0x9a05+int64(fi)*101)
		})
	}
}

// TestFedChaosKillAllLayouts sweeps the kill fault across every shard
// layout of the bit-identical property test, including the one with
// entirely empty shards.
func TestFedChaosKillAllLayouts(t *testing.T) {
	if testing.Short() {
		t.Skip("full layout sweep is the long half of the chaos matrix")
	}
	kill := chaosFaults()[0]
	seed := int64(0x51117)
	for name, part := range testPartitions() {
		seed++
		part := part
		t.Run(name, func(t *testing.T) {
			runChaosScenario(t, part, kill, seed)
		})
	}
}

// TestDurableFollowerResume pins the checkpoint-resume property the
// MTTR experiment depends on: a killed durable shard comes back
// reading its sealed segments and WAL tail, and re-tails only the
// missed suffix — it does not re-ingest from genesis.
func TestDurableFollowerResume(t *testing.T) {
	src := testChain(t)
	blocks := src.Blocks()

	h := newChaosHarness(t, 2, 0xd00d, false)
	live := chain.NewChain(src.Genesis)
	cl := FollowChain(live, ByRegion(2), h.options())
	defer cl.Close()
	cl.Supervise(fastSupervision())

	half := len(blocks) / 2
	for _, b := range blocks[:half] {
		if _, err := live.AppendBlock(b.Height, b.Txns); err != nil {
			t.Fatal(err)
		}
	}
	chaosWait(t, cl, blocks[half-1].Height)

	if err := cl.Kill(0); err != nil {
		t.Fatal(err)
	}
	chaosWait(t, cl, blocks[half-1].Height)

	// The restarted incarnation resumed from durable state: its store
	// was not rebuilt from genesis, so its first height predates the
	// kill. (A cold rebuild would also pass WaitHeight; this assertion
	// is what separates resume from re-ingest.)
	n := cl.slots[0].current()
	if n == nil {
		t.Fatal("shard 0 has no node after recovery")
	}
	if first := n.store.FirstHeight(); first != blocks[0].Height {
		t.Fatalf("recovered store starts at %d, want %d (resume, not cold rebuild)", first, blocks[0].Height)
	}
	if n.store.Height() < blocks[half-1].Height {
		t.Fatalf("recovered store tip %d below pre-kill tip %d", n.store.Height(), blocks[half-1].Height)
	}

	for _, b := range blocks[half:] {
		if _, err := live.AppendBlock(b.Height, b.Txns); err != nil {
			t.Fatal(err)
		}
	}
	chaosWait(t, cl, live.Height())
	verifyMatrix(t, cl, live.Blocks(), queryMatrix(src))
}
