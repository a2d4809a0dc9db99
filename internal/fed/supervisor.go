package fed

import (
	"sync"
	"time"

	"peoplesnet/internal/etl"
)

// ShardState is where a shard sits in its supervisor's state machine.
type ShardState string

const (
	// StateRunning: a node is up (healthy or catching up).
	StateRunning ShardState = "running"
	// StateBackoff: the node crashed; a restart is scheduled after a
	// jittered exponential delay.
	StateBackoff ShardState = "backoff"
	// StateOpen: the circuit breaker tripped after MaxRestarts
	// consecutive failed recoveries. No restarts are attempted; the
	// router degrades the shard to reported Gaps instead of feeding a
	// retry storm.
	StateOpen ShardState = "open"
	// StateHalfOpen: after the breaker's dwell, one probe restart is in
	// flight; success closes the breaker, failure reopens it.
	StateHalfOpen ShardState = "half-open"
)

// SupervisorOptions tunes the health-probe / restart / breaker loop.
// The zero value is production-shaped; tests shrink every interval.
type SupervisorOptions struct {
	// ProbeInterval is how often each shard's health is sampled (store
	// tip vs. source tip). Default 25ms.
	ProbeInterval time.Duration
	// WedgeProbes is how many consecutive probes a shard may spend
	// lagging the source with zero progress before it is declared
	// wedged and crash-restarted. Default 8.
	WedgeProbes int
	// BackoffBase/BackoffMax bound the jittered exponential restart
	// delay. Defaults 5ms / 500ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxRestarts is the breaker threshold K: after this many
	// consecutive failed recoveries (restarts that error out or whose
	// node dies before ever catching up) the shard's breaker opens.
	// Default 5; negative disables the breaker.
	MaxRestarts int
	// HalfOpenAfter is the open breaker's dwell before a single probe
	// restart is tried. Default 2s.
	HalfOpenAfter time.Duration
}

func (o SupervisorOptions) probeInterval() time.Duration {
	if o.ProbeInterval <= 0 {
		return 25 * time.Millisecond
	}
	return o.ProbeInterval
}

func (o SupervisorOptions) wedgeProbes() int {
	if o.WedgeProbes <= 0 {
		return 8
	}
	return o.WedgeProbes
}

func (o SupervisorOptions) backoffBase() time.Duration {
	if o.BackoffBase <= 0 {
		return 5 * time.Millisecond
	}
	return o.BackoffBase
}

func (o SupervisorOptions) backoffMax() time.Duration {
	if o.BackoffMax <= 0 {
		return 500 * time.Millisecond
	}
	return o.BackoffMax
}

func (o SupervisorOptions) maxRestarts() int {
	switch {
	case o.MaxRestarts < 0:
		return 0 // breaker disabled
	case o.MaxRestarts == 0:
		return 5
	}
	return o.MaxRestarts
}

func (o SupervisorOptions) halfOpenAfter() time.Duration {
	if o.HalfOpenAfter <= 0 {
		return 2 * time.Second
	}
	return o.HalfOpenAfter
}

// SupervisorShard is one shard's supervision snapshot for operational
// surfaces (/etl).
type SupervisorShard struct {
	Shard    ShardID    `json:"shard"`
	State    ShardState `json:"state"`
	Restarts int64      `json:"restarts"`
	// Consecutive counts failed recoveries since the shard last caught
	// up; it is what trips the breaker at MaxRestarts.
	Consecutive int          `json:"consecutive_failures,omitempty"`
	LastError   string       `json:"last_error,omitempty"`
	History     []ShardState `json:"history,omitempty"`
}

// supShard is the mutable per-shard supervision record.
type supShard struct {
	state       ShardState
	restarts    int64
	consecutive int
	healthy     bool // current incarnation reached the source tip
	lastErr     string
	history     []ShardState
}

const supHistoryCap = 16

// Supervisor makes a cluster self-healing: one watchdog goroutine per
// shard probes liveness (crashed follower, wedged tail) and restarts
// dead nodes with jittered exponential backoff, tripping a per-shard
// circuit breaker after MaxRestarts consecutive failed recoveries so
// a shard that cannot come back degrades to reported Gaps instead of
// a retry storm. An open breaker still probes: after HalfOpenAfter it
// half-opens for a single restart attempt.
type Supervisor struct {
	cl      *Cluster
	opts    SupervisorOptions
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	backoff *etl.Backoff

	mu     sync.Mutex
	shards []*supShard // guarded by mu
}

func newSupervisor(cl *Cluster, opts SupervisorOptions) *Supervisor {
	shards := make([]*supShard, len(cl.slots))
	for i := range shards {
		shards[i] = &supShard{state: StateRunning, history: []ShardState{StateRunning}}
	}
	s := &Supervisor{
		cl:      cl,
		opts:    opts,
		stop:    make(chan struct{}),
		backoff: etl.NewBackoff(opts.backoffBase(), opts.backoffMax()),
		shards:  shards,
	}
	s.wg.Add(len(cl.slots))
	for _, sl := range cl.slots {
		go s.watch(sl)
	}
	return s
}

// Close stops every watchdog and waits for them; running nodes are
// left running (the cluster owns them). Idempotent.
func (s *Supervisor) Close() {
	s.once.Do(func() {
		close(s.stop)
		s.wg.Wait()
		s.cl.mu.Lock()
		if s.cl.sup == s {
			s.cl.sup = nil
		}
		s.cl.mu.Unlock()
	})
}

// Status snapshots every shard's supervision state.
func (s *Supervisor) Status() []SupervisorShard {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SupervisorShard, len(s.shards))
	for i, sh := range s.shards {
		out[i] = SupervisorShard{
			Shard:       ShardID(i),
			State:       sh.state,
			Restarts:    sh.restarts,
			Consecutive: sh.consecutive,
			LastError:   sh.lastErr,
			History:     append([]ShardState(nil), sh.history...),
		}
	}
	return out
}

// ShardState returns one shard's current state.
func (s *Supervisor) ShardState(id ShardID) ShardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[id].state
}

// watch is one shard's watchdog loop. It owns the slot: nobody else
// swaps nodes in or out, so current() is stable between its own sets.
func (s *Supervisor) watch(sl *nodeSlot) {
	defer s.wg.Done()
	probe := time.NewTicker(s.opts.probeInterval())
	defer probe.Stop()
	lastTip := int64(-1)
	stalled := 0
	for {
		n := sl.current()
		if n == nil {
			// The initial start failed; drive recovery immediately.
			s.noteDown(sl.id, sl.downErr().Error())
			if !s.recover(sl) {
				return
			}
			lastTip, stalled = -1, 0
			continue
		}
		select {
		case <-s.stop:
			return
		case <-n.f.Done():
			// The follower exited: crashed on an error, was killed, or
			// its source ended under it (producer disconnect). All of
			// them recover the same way — a fresh incarnation that
			// resumes from the store tip.
			msg := "source ended"
			if err := n.Err(); err != nil {
				msg = err.Error()
			}
			s.noteDown(sl.id, msg)
			if !s.recover(sl) {
				return
			}
			lastTip, stalled = -1, 0
		case <-probe.C:
			tip := n.store.Height()
			switch {
			case tip >= s.cl.src.Height():
				// Caught up: the incarnation proved itself; the breaker's
				// consecutive-failure count resets.
				s.markHealthy(sl.id)
				stalled = 0
			case tip > lastTip:
				stalled = 0
			default:
				// Lagging and not moving. A healthy follower may briefly
				// stall on a slow append, so only a full watchdog window
				// of zero progress counts as wedged.
				if stalled++; stalled >= s.opts.wedgeProbes() {
					n.crash(errWedged)
					s.noteDown(sl.id, errWedged.Error())
					if !s.recover(sl) {
						return
					}
					stalled = 0
					lastTip = -1
					continue
				}
			}
			lastTip = tip
		}
	}
}

// recover drives one shard's restart cycle until a new incarnation is
// up or the supervisor stops (returns false). Each failed attempt
// deepens the backoff; at MaxRestarts consecutive failures the
// breaker opens and attempts slow to one probe per HalfOpenAfter.
func (s *Supervisor) recover(sl *nodeSlot) bool {
	for {
		k := s.snapshot(sl.id)
		if limit := s.opts.maxRestarts(); limit > 0 && k >= limit {
			s.setState(sl.id, StateOpen)
			if !s.sleep(s.opts.halfOpenAfter()) {
				return false
			}
			s.setState(sl.id, StateHalfOpen)
		} else {
			s.setState(sl.id, StateBackoff)
			if !s.sleep(s.backoff.Delay(k)) {
				return false
			}
		}
		n, err := s.cl.startNode(sl.id)
		s.bumpRestarts(sl.id)
		if err != nil {
			s.noteFailure(sl.id, err.Error())
			sl.fail(err)
			continue
		}
		sl.set(n)
		s.setState(sl.id, StateRunning)
		return true
	}
}

// sleep waits d or until the supervisor stops (returns false).
func (s *Supervisor) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.stop:
		return false
	case <-t.C:
		return true
	}
}

func (s *Supervisor) setState(id ShardID, st ShardState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[id]
	if sh.state == st {
		return
	}
	sh.state = st
	sh.history = append(sh.history, st)
	if len(sh.history) > supHistoryCap {
		sh.history = sh.history[len(sh.history)-supHistoryCap:]
	}
	if st == StateRunning {
		// Fresh incarnation: it must catch up before it counts as a
		// successful recovery (markHealthy), so leave consecutive alone.
		sh.healthy = false
	}
}

// noteDown records an incarnation's death. Dying before ever catching
// up counts as a failed recovery toward the breaker; a previously
// healthy node's death starts a new failure streak at one.
func (s *Supervisor) noteDown(id ShardID, msg string) {
	s.mu.Lock()
	sh := s.shards[id]
	if sh.healthy {
		sh.consecutive = 1
	} else {
		sh.consecutive++
	}
	sh.healthy = false
	sh.lastErr = msg
	s.mu.Unlock()
}

// noteFailure records a restart attempt that could not even build a
// node (store open failed).
func (s *Supervisor) noteFailure(id ShardID, msg string) {
	s.mu.Lock()
	sh := s.shards[id]
	sh.consecutive++
	sh.lastErr = msg
	s.mu.Unlock()
}

func (s *Supervisor) markHealthy(id ShardID) {
	s.mu.Lock()
	sh := s.shards[id]
	sh.healthy = true
	sh.consecutive = 0
	sh.lastErr = ""
	s.mu.Unlock()
}

func (s *Supervisor) bumpRestarts(id ShardID) {
	s.mu.Lock()
	s.shards[id].restarts++
	s.mu.Unlock()
}

func (s *Supervisor) snapshot(id ShardID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[id].consecutive
}
