package etl

import (
	"sync"
	"sync/atomic"
	"time"

	"peoplesnet/internal/stats"
)

// Backoff computes capped, jittered exponential retry delays. The bare
// exponential the follower used to run — 1ms, 2ms, 4ms, ... — makes
// every retrier that failed together retry together; the jitter here
// (uniform over the upper half of the window, the classic "equal
// jitter" scheme) decorrelates them while keeping the first delay
// non-degenerate. The zero value is not usable; build one with
// NewBackoff.
type Backoff struct {
	base, max time.Duration

	mu  sync.Mutex
	rng *stats.RNG // guarded by mu
}

// backoffSeq seeds each Backoff differently so concurrent retriers
// (per-shard followers, supervisor restart loops) draw distinct jitter
// without any shared global RNG state.
var backoffSeq atomic.Uint64

// NewBackoff returns a backoff with the given base (first delay) and
// cap.
func NewBackoff(base, max time.Duration) *Backoff {
	return &Backoff{base: base, max: max, rng: stats.NewRNG(0x626b6f66 ^ backoffSeq.Add(1))}
}

// Delay returns the jittered delay for the given 0-based attempt:
// uniform in [w/2, w] where w = min(base<<attempt, max).
func (b *Backoff) Delay(attempt int) time.Duration {
	w := b.base
	for i := 0; i < attempt && w < b.max; i++ {
		w <<= 1
	}
	if w > b.max {
		w = b.max
	}
	half := w / 2
	b.mu.Lock()
	j := time.Duration(b.rng.Int63n(int64(half) + 1))
	b.mu.Unlock()
	return half + j
}
