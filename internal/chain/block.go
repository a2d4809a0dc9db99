package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Block is one chain block. Blocks are minted nominally once per
// minute (§3); the simulator may mint sparse blocks (skipping empty
// heights) without affecting any analysis, which all key off height.
//
// A block a Chain appended also keeps its transactions' IDs, hashed
// once at admission (TxnHash). Blocks built any other way — decoded
// from JSON or the binary codec, projected by a shard, or written as
// a literal — carry none, and TxnHash hashes on demand.
type Block struct {
	Height    int64     `json:"height"`
	Timestamp time.Time `json:"timestamp"`
	PrevHash  string    `json:"prev_hash"`
	Hash      string    `json:"hash"`
	Txns      []Txn     `json:"txns"`

	ids []TxnID // IDOf(Txns[i]), kept by Chain appends; nil otherwise
}

// TxnHash returns the ID of the block's i-th transaction: the one the
// chain kept at append, or IDOf(Txns[i]) for a block no chain built.
// Its String is Hash(Txns[i]) either way.
func (b *Block) TxnHash(i int) TxnID {
	if b.ids != nil {
		return b.ids[i]
	}
	return IDOf(b.Txns[i])
}

// computeHash derives the block hash from height, time, parent, and
// the hex IDs of the transactions (TxnHash).
func (b *Block) computeHash() string {
	h := sha256.New()
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(b.Height))
	binary.BigEndian.PutUint64(buf[8:], uint64(b.Timestamp.UnixNano()))
	h.Write(buf[:])
	h.Write([]byte(b.PrevHash))
	var hx [32]byte // one TxnID in hex
	for i := range b.Txns {
		id := b.TxnHash(i)
		hex.Encode(hx[:], id[:])
		h.Write(hx[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// Chain is an append-only block sequence with its ledger. Appending a
// block validates and applies every transaction atomically from the
// caller's perspective: a block containing any invalid transaction is
// rejected whole.
//
// A Chain is safe for one producer appending blocks concurrently with
// any number of readers (Scan, Blocks, BlocksFrom, tails): appended
// blocks are immutable, and the block slice is only read under the
// mutex or via snapshots taken under it.
type Chain struct {
	Genesis time.Time
	ledger  *Ledger

	mu     sync.RWMutex
	blocks []*Block
	grown  *sync.Cond // on mu's read side; broadcast after every append
}

// NewChain creates a chain whose genesis time anchors block heights to
// wall-clock timestamps. The paper's network launched July 29, 2019.
func NewChain(genesis time.Time) *Chain {
	c := &Chain{Genesis: genesis, ledger: NewLedger()}
	c.grown = sync.NewCond(c.mu.RLocker())
	return c
}

// DefaultGenesis is the first real entry on the Helium blockchain (§3).
var DefaultGenesis = time.Date(2019, 7, 29, 0, 0, 0, 0, time.UTC)

// Ledger exposes the chain's ledger.
func (c *Chain) Ledger() *Ledger { return c.ledger }

// Height returns the height of the last block (-1 if empty).
func (c *Chain) Height() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.heightLocked()
}

func (c *Chain) heightLocked() int64 {
	if len(c.blocks) == 0 {
		return -1
	}
	return c.blocks[len(c.blocks)-1].Height
}

// FirstHeight returns the height of the first block (-1 if empty).
func (c *Chain) FirstHeight() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.blocks) == 0 {
		return -1
	}
	return c.blocks[0].Height
}

// TimeOf returns the wall-clock timestamp for a block height.
func (c *Chain) TimeOf(height int64) time.Time {
	return c.Genesis.Add(time.Duration(height) * BlockIntervalSec * time.Second)
}

// HeightOf returns the block height corresponding to a wall-clock
// time (clamped at 0).
func (c *Chain) HeightOf(t time.Time) int64 {
	h := int64(t.Sub(c.Genesis) / (BlockIntervalSec * time.Second))
	if h < 0 {
		h = 0
	}
	return h
}

// AppendBlock validates all txns against the ledger and appends a new
// block at the given height. Heights must be strictly increasing but
// may be sparse. If any transaction fails validation, no state
// changes and the error identifies the offender.
func (c *Chain) AppendBlock(height int64, txns []Txn) (*Block, error) {
	return c.AppendBlockHashed(height, txns, nil)
}

// AppendBlockHashed is AppendBlock for producers that already hold the
// transaction IDs (e.g. computed in parallel while the block was
// assembled): ids[i] must equal IDOf(txns[i]), index-aligned with
// txns, or nil to compute them here. The block keeps a copy, so the
// caller may reuse ids; it is byte-identical to an AppendBlock of the
// same transactions.
func (c *Chain) AppendBlockHashed(height int64, txns []Txn, ids []TxnID) (*Block, error) {
	if tip := c.Height(); height <= tip {
		return nil, fmt.Errorf("chain: height %d not beyond tip %d", height, tip)
	}
	if ids != nil && len(ids) != len(txns) {
		return nil, fmt.Errorf("chain: %d txn IDs for %d txns", len(ids), len(txns))
	}
	// Validate-all-then-apply-all is not sufficient when later txns
	// depend on earlier ones in the same block (add_gateway then
	// assert_location), so validate/apply pairwise under one lock and
	// roll back by rebuilding on failure. To keep the common path
	// fast, we instead pre-validate sequentially against a speculative
	// application, accepting that a mid-block failure leaves earlier
	// txns applied — and therefore treat any failure as fatal to the
	// chain build. Simulators construct blocks they know are valid;
	// external callers should validate txns individually first.
	c.ledger.mu.Lock()
	for i, t := range c.ledger.speculative(txns, height) {
		if t != nil {
			c.ledger.mu.Unlock()
			return nil, fmt.Errorf("chain: block %d txn %d (%s): %w", height, i, txns[i].TxnType(), t)
		}
	}
	c.ledger.mu.Unlock()

	// Hash outside c.mu: readers (tails, BlockAt) keep running while a
	// large block's transactions are encoded.
	b := &Block{
		Height:    height,
		Timestamp: c.TimeOf(height),
		Txns:      txns,
		ids:       make([]TxnID, len(txns)),
	}
	if ids != nil {
		copy(b.ids, ids)
	} else {
		for i, t := range txns {
			b.ids[i] = IDOf(t)
		}
	}
	c.mu.Lock()
	if len(c.blocks) > 0 {
		b.PrevHash = c.blocks[len(c.blocks)-1].Hash
	}
	b.Hash = b.computeHash()
	c.blocks = append(c.blocks, b)
	c.mu.Unlock()
	c.grown.Broadcast()
	return b, nil
}

// Tail is a pull-based subscription over the chain's block sequence:
// it replays every block after its start height, then blocks until
// new ones are appended. It can never drop a block, however slow the
// consumer, and Close is lossless too: Next still returns every block
// appended before the Close, then reports false.
type Tail struct {
	c     *Chain
	after int64
	// closed and end (the chain tip at Close) are written under c.mu
	// and read under its read side.
	closed bool
	end    int64
}

// Follow returns a tail positioned after the given height (use -1 to
// replay everything, or Height() to receive only new blocks). Next is
// for one goroutine; Close may race with it.
func (c *Chain) Follow(after int64) *Tail {
	return &Tail{c: c, after: after}
}

// Next returns the next block, blocking until one is available. After
// Close it drains the suffix appended before the Close, then returns
// false, so a closing consumer finishes even while the producer runs.
func (t *Tail) Next() (*Block, bool) {
	c := t.c
	c.mu.RLock()
	defer c.mu.RUnlock()
	for {
		i := sort.Search(len(c.blocks), func(i int) bool { return c.blocks[i].Height > t.after })
		if i < len(c.blocks) && (!t.closed || c.blocks[i].Height <= t.end) {
			t.after = c.blocks[i].Height
			return c.blocks[i], true
		}
		if t.closed {
			return nil, false
		}
		c.grown.Wait()
	}
}

// Close ends the tail: a pending Next wakes, and once the suffix
// appended so far is drained, Next returns false. Close is idempotent.
func (t *Tail) Close() {
	t.c.mu.Lock()
	if !t.closed {
		t.closed, t.end = true, t.c.heightLocked()
	}
	t.c.mu.Unlock()
	t.c.grown.Broadcast()
}

// speculative applies txns in order, recording the first error; on
// error, previously applied txns in this batch remain applied (see
// AppendBlock). Caller holds l.mu. The returned slice has one entry
// per txn (nil for success); processing stops at the first error.
func (l *Ledger) speculative(txns []Txn, height int64) []error {
	errs := make([]error, len(txns))
	for i, t := range txns {
		if err := l.applyLocked(t, height); err != nil {
			errs[i] = err
			break
		}
	}
	return errs
}

// Blocks returns a copy of the block sequence. The blocks themselves
// are shared and immutable once appended.
func (c *Chain) Blocks() []*Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Block(nil), c.blocks...)
}

// BlocksFrom returns every block with height strictly greater than
// after, in order. Followers keep their last-seen tip and pass it here
// so each poll reads only the new suffix, not the whole history.
func (c *Chain) BlocksFrom(after int64) []*Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i := sort.Search(len(c.blocks), func(i int) bool { return c.blocks[i].Height > after })
	if i == len(c.blocks) {
		return nil
	}
	return append([]*Block(nil), c.blocks[i:]...)
}

// BlockAt returns the block at exactly height, or nil if the chain
// holds none. Shard followers use it to re-derive per-block metadata
// (original intra-block transaction indexes) after a restart, so it is
// a binary search, not a suffix copy.
func (c *Chain) BlockAt(height int64) *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i := sort.Search(len(c.blocks), func(i int) bool { return c.blocks[i].Height >= height })
	if i < len(c.blocks) && c.blocks[i].Height == height {
		return c.blocks[i]
	}
	return nil
}

// snapshot returns the current block slice header; the backing array
// is append-only and blocks are immutable, so iterating the snapshot
// without the lock is safe.
func (c *Chain) snapshot() []*Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks
}

// TxnCount returns the total number of transactions on chain.
func (c *Chain) TxnCount() int64 {
	var n int64
	for _, b := range c.snapshot() {
		n += int64(len(b.Txns))
	}
	return n
}

// TxnMix counts transactions by type.
func (c *Chain) TxnMix() map[TxnType]int64 {
	mix := make(map[TxnType]int64)
	for _, b := range c.snapshot() {
		for _, t := range b.Txns {
			mix[t.TxnType()]++
		}
	}
	return mix
}

// Scan calls fn for every transaction in height order, stopping early
// if fn returns false.
func (c *Chain) Scan(fn func(height int64, t Txn) bool) {
	for _, b := range c.snapshot() {
		for _, t := range b.Txns {
			if !fn(b.Height, t) {
				return
			}
		}
	}
}

// ScanType calls fn for every transaction of the given type.
func (c *Chain) ScanType(tt TxnType, fn func(height int64, t Txn) bool) {
	c.Scan(func(h int64, t Txn) bool {
		if t.TxnType() != tt {
			return true
		}
		return fn(h, t)
	})
}

// ScanTypes calls fn for every transaction whose type is in tts,
// interleaved in chain order (height, then intra-block position).
func (c *Chain) ScanTypes(tts []TxnType, fn func(height int64, t Txn) bool) {
	want := make(map[TxnType]bool, len(tts))
	for _, tt := range tts {
		want[tt] = true
	}
	c.Scan(func(h int64, t Txn) bool {
		if !want[t.TxnType()] {
			return true
		}
		return fn(h, t)
	})
}
