package fed

import (
	"errors"
	"fmt"
	"sync"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// ErrKilled is the error a crashed node reports when it was killed
// deliberately — the chaos / MTTR hook (Cluster.Kill), not a fault of
// its own.
var ErrKilled = errors.New("fed: follower killed")

// errWedged marks a node the supervisor crashed because it was
// lagging with no progress across the watchdog window.
var errWedged = errors.New("fed: follower wedged")

// Source is the block feed a shard node tails: an etl.Feed over the
// producer's block sequence, positioned at the node's store tip when
// it is built, plus BlockAt, a random read of one already-produced
// block. Restarted nodes use BlockAt to re-derive per-block metadata
// without re-tailing, so it must work even after Close.
type Source interface {
	etl.Feed
	BlockAt(height int64) *chain.Block
}

// chainSource is the production Source: a chain.Tail plus the random
// read the tail itself does not offer.
type chainSource struct {
	*chain.Tail
	c *chain.Chain
}

func (s chainSource) BlockAt(height int64) *chain.Block { return s.c.BlockAt(height) }

// Node is one shard: an etl.Store holding the partition slice it
// owns, fed by a goroutine tailing the source. Per the package
// invariant it appends a block for every upstream height — original
// header, owned transactions only — so its store tip always equals
// the height it has processed up to.
//
// A node is one incarnation of a shard. Durable shards outlive their
// nodes: when a node crashes, the supervisor builds a fresh Node over
// the same store directory, which resumes from its sealed segments
// and WAL tail and re-tails only the missed suffix.
type Node struct {
	id      ShardID
	part    Partition
	store   *etl.Store
	src     Source
	f       *etl.Follower
	durable bool // store came from etl.Open; graceful Close flushes it

	mu sync.RWMutex
	// seq maps a kept transaction to its index in the original
	// upstream block. Txn values are pointers shared with the source
	// blocks, so the interface key is identity, not content. This is
	// what lets a shard answer with upstream-true (height, seq)
	// coordinates even though its own blocks are filtered. The map is
	// memory-only: after a restart it is rebuilt lazily, one height at
	// a time, by re-filtering the source block (rebuildSeqLocked).
	seq map[chain.Txn]int32 // guarded by mu
	err error               // guarded by mu — a crash's cause
}

// newNode starts one shard incarnation over the given store; src must
// be positioned at the store's tip.
func newNode(id ShardID, part Partition, src Source, store *etl.Store, durable bool) *Node {
	n := &Node{
		id:      id,
		part:    part,
		store:   store,
		src:     src,
		durable: durable,
		seq:     make(map[chain.Txn]int32),
	}
	n.f = store.FollowFeed(shardFeed{n})
	return n
}

// shardFeed is what the node's follower ingests: each upstream block
// projected onto the shard, its kept transactions' upstream indexes
// recorded before the store sees them.
type shardFeed struct{ n *Node }

func (sf shardFeed) Next() (*chain.Block, bool) {
	n := sf.n
	b, ok := n.src.Next()
	if !ok {
		return nil, false
	}
	piece, seqs := n.filter(b)
	n.mu.Lock()
	for i, t := range piece.Txns {
		n.seq[t] = seqs[i]
	}
	n.mu.Unlock()
	return piece, true
}

func (sf shardFeed) Close() { sf.n.src.Close() }

// filter projects an upstream block onto this shard: the original
// header with only the owned transactions, plus their original
// intra-block indexes.
func (n *Node) filter(b *chain.Block) (*chain.Block, []int32) {
	var txns []chain.Txn
	var seqs []int32
	for i, t := range b.Txns {
		if n.part.Owns(RegionOf(t)) == n.id {
			txns = append(txns, t)
			seqs = append(seqs, int32(i))
		}
	}
	if len(txns) == 0 {
		return n.header(b), nil
	}
	h := n.header(b)
	h.Txns = txns
	return h, seqs
}

func (n *Node) header(b *chain.Block) *chain.Block {
	return &chain.Block{Height: b.Height, Timestamp: b.Timestamp, PrevHash: b.PrevHash, Hash: b.Hash}
}

// seqOf returns a kept transaction's index in its upstream block.
// Transactions ingested by this incarnation hit the map directly;
// ones inherited on disk from a previous incarnation miss (the map
// keys on pointer identity, and decoded blocks carry fresh pointers),
// so their whole height is rebuilt from the source on first touch.
// A height the rebuild cannot recover is an error, never seq 0.
func (n *Node) seqOf(height int64, t chain.Txn) (int32, error) {
	n.mu.RLock()
	s, ok := n.seq[t]
	n.mu.RUnlock()
	if ok {
		return s, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.seq[t]; ok {
		return s, nil
	}
	if err := n.rebuildSeqLocked(height); err != nil {
		return 0, err
	}
	if s, ok := n.seq[t]; ok {
		return s, nil
	}
	return 0, fmt.Errorf("fed: shard %d: height %d: transaction not in its upstream block", n.id, height)
}

// rebuildSeqLocked recovers the seq entries for one height after a
// restart. The upstream block still exists at the source; filtering
// it again yields the owned transactions' original indexes in kept
// order, which maps one-to-one onto the stored block's transactions —
// filter is deterministic and Append preserved its order.
func (n *Node) rebuildSeqLocked(height int64) error {
	up := n.src.BlockAt(height)
	if up == nil {
		return fmt.Errorf("fed: shard %d: upstream block %d unavailable", n.id, height)
	}
	sb := n.store.BlockAt(height)
	if sb == nil {
		return fmt.Errorf("fed: shard %d: stored block %d unavailable", n.id, height)
	}
	_, seqs := n.filter(up)
	if len(seqs) != len(sb.Txns) {
		return fmt.Errorf("fed: shard %d: height %d: upstream block keeps %d transactions, store holds %d",
			n.id, height, len(seqs), len(sb.Txns))
	}
	for i, t := range sb.Txns {
		n.seq[t] = seqs[i]
	}
	return nil
}

// Err returns the node's first error — a crash's cause or the
// follower's ingest error, whichever came first — if any.
func (n *Node) Err() error {
	n.mu.RLock()
	err := n.err
	n.mu.RUnlock()
	if err == nil {
		err = n.f.Err()
	}
	return err
}

// Close stops the ingest loop, waits for it to exit, and — for a
// durable node — flushes the store (sealed index sync, WAL close).
func (n *Node) Close() error {
	n.f.Close()
	if n.durable {
		if cerr := n.store.Close(); cerr != nil && n.Err() == nil {
			return cerr
		}
	}
	return n.Err()
}

// crash kills the incarnation with crash semantics: the error is
// recorded, the ingest loop is joined, and the store is NOT flushed —
// only what the WAL already fsynced survives, exactly what a process
// death leaves behind. The store directory stays reopenable.
func (n *Node) crash(err error) {
	n.mu.Lock()
	if n.err == nil && n.f.Err() == nil {
		n.err = err
	}
	n.mu.Unlock()
	n.f.Close()
}

// Info snapshots the node for operational surfaces. Lag is filled in
// by the cluster, which knows the source tip.
func (n *Node) Info() ShardInfo {
	st := n.store.Stats()
	info := ShardInfo{
		ID:     n.id,
		Slice:  n.part.Describe(n.id),
		Tip:    st.TipHeight,
		Blocks: st.Blocks,
		Txns:   st.Txns,
		Health: n.store.Health(),
	}
	if err := n.Err(); err != nil {
		info.Err = err.Error()
	}
	return info
}
