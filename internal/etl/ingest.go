package etl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"peoplesnet/internal/chain"
)

// ErrStaleHeight reports an Append at or below the store's tip. The
// store is append-only and never silently skips: callers replaying a
// source must filter by Height() first or treat this as permanent.
var ErrStaleHeight = errors.New("etl: block height not beyond tip")

// Append ingests one block. Heights must be strictly increasing
// (sparse is fine, matching the chain's contract). Blocks are shared,
// not copied — they are immutable once minted.
//
// For a durable store the block is written to the WAL and fsynced
// before it is accepted; a *PersistError return means the store is
// unchanged and the same block may be retried once the fault clears.
func (s *Store) Append(b *chain.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(b)
}

func (s *Store) appendLocked(b *chain.Block) error {
	if b.Height <= s.tip {
		return fmt.Errorf("%w: block %d not beyond tip %d", ErrStaleHeight, b.Height, s.tip)
	}
	if s.dur != nil {
		if err := s.durAppendLocked(b); err != nil {
			return err
		}
	}
	if s.first < 0 {
		s.first = b.Height
	}
	s.tip = b.Height
	s.pending = append(s.pending, b)
	s.pendingTxns += int64(len(b.Txns))
	for _, t := range b.Txns {
		s.agg.observe(b.Height, t)
	}
	s.lastAppend = time.Now()
	if len(s.pending) >= s.cfg.SegmentBlocks {
		s.sealLocked()
	}
	s.grown.Broadcast()
	return nil
}

// sealLocked indexes the pending buffer into a sealed segment. Caller
// holds s.mu and guarantees pending is non-empty. A durable store
// publishes the segment and shrinks the WAL; publish failures are
// absorbed (the blocks stay WAL-durable) and retried later.
func (s *Store) sealLocked() {
	g := buildSegment(s.pending)
	// The pending blocks were observed at append time, so this
	// segment's contribution is already in the aggregates.
	g.aggFolded = true
	s.sealed = append(s.sealed, g)
	s.pending = nil
	s.pendingTxns = 0
	if s.dur != nil {
		s.durSealLocked()
	}
}

// BulkLoad ingests every block of c beyond the store's tip. The final
// partial segment is sealed too, so the whole loaded history is
// indexed. Calling it again after the chain has grown ingests only the
// new suffix.
func (s *Store) BulkLoad(c *chain.Chain) error {
	for _, b := range c.BlocksFrom(s.Height()) {
		if err := s.Append(b); err != nil {
			return err
		}
	}
	s.mu.Lock()
	if len(s.pending) > 0 {
		s.sealLocked()
	}
	s.mu.Unlock()
	return nil
}

// Feed is a lossless block iterator a Follower drains: Next blocks
// until a block is available, and after Close returns whatever was
// already available before reporting false. *chain.Tail is one.
type Feed interface {
	Next() (*chain.Block, bool)
	Close()
}

// Follower streams a feed into a store from a goroutine: the one
// retrying ingest loop behind the chain follower and every federation
// shard node.
type Follower struct {
	s    *Store
	feed Feed
	done chan struct{}
	stop chan struct{} // closed by Close; interrupts retry backoff
	once sync.Once

	mu  sync.Mutex
	err error
}

// Transient persistence faults back off and retry rather than killing
// a live tail; the feed's source retains every block, so a retried
// ingest loses nothing. Anything else (a stale height, a closed
// store) is permanent. Delays are jittered and capped (Backoff) so a
// cluster of followers tripping over the same fault does not retry in
// lock-step.
const (
	followerMaxRetries = 8
	followerBaseDelay  = time.Millisecond
	followerMaxDelay   = 200 * time.Millisecond
)

// FollowChain attaches a follower to a live chain, tailing it from the
// store's tip. The returned Follower ingests concurrently with the
// chain's producer until Close is called.
func (s *Store) FollowChain(c *chain.Chain) *Follower {
	return s.FollowFeed(c.Follow(s.Height()))
}

// FollowFeed starts a Follower appending every block the feed yields.
// The Follower owns the feed and closes it on Close.
func (s *Store) FollowFeed(feed Feed) *Follower {
	f := &Follower{s: s, feed: feed, done: make(chan struct{}), stop: make(chan struct{})}
	go f.run()
	return f
}

func (f *Follower) run() {
	defer close(f.done)
	backoff := NewBackoff(followerBaseDelay, followerMaxDelay)
	for {
		b, ok := f.feed.Next()
		if !ok {
			return
		}
		if err := f.ingest(b, backoff); err != nil {
			f.mu.Lock()
			f.err = err
			f.mu.Unlock()
			return
		}
	}
}

// ingest appends one block, retrying transient persistence faults
// with capped, jittered exponential backoff. Close interrupts the
// backoff; each retry is counted on the store's health surface.
func (f *Follower) ingest(b *chain.Block, backoff *Backoff) error {
	for attempt := 0; ; attempt++ {
		err := f.s.Append(b)
		var pe *PersistError
		if err == nil || !errors.As(err, &pe) || attempt >= followerMaxRetries {
			return err
		}
		f.s.NoteIngestRetry()
		select {
		case <-f.stop:
			return err
		case <-time.After(backoff.Delay(attempt)):
		}
	}
}

// Close stops following, ingests the suffix the feed already holds,
// and waits for the follower goroutine to exit. It returns the first
// ingest error, if any. Close is idempotent.
func (f *Follower) Close() error {
	f.once.Do(func() {
		close(f.stop) // unblock any retry backoff
		f.feed.Close()
		<-f.done
	})
	return f.Err()
}

// Done is closed when the follower goroutine exits: the feed ended,
// an ingest failed for good, or Close was called.
func (f *Follower) Done() <-chan struct{} { return f.done }

// Err returns the first ingest error encountered, if any.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
