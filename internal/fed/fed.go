// Package fed is the federated query tier: N shard nodes — each an
// etl.Store follower tailing the same producer, owning one slice of a
// partition — behind a router that plans each query against the
// partition (hitting only shards whose slice can contain answers),
// fans it out in parallel with per-shard timeouts, and merges partial
// results through pluggable aggregation strategies.
//
// The design invariant that makes everything else simple: every node
// appends EVERY upstream height to its store, keeping the original
// block header (height, timestamp, hashes) and only the transactions
// its partition slice owns — possibly none. Lag is therefore uniform
// (source tip minus store tip, in blocks) across shards, and a query
// fanned to all shards is always correct because non-owning shards
// contribute empty partials.
//
// Stragglers never block a result: shards that miss their per-shard
// timeout are reported as height gaps (quorum permitting), and shards
// trailing the source beyond the lag budget are surfaced as stale in
// the result rather than awaited.
package fed

import (
	"fmt"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// ShardID indexes a shard within its cluster, 0-based and dense.
type ShardID int

// Kind selects what a Query computes; each kind has a registered
// aggregation strategy that merges per-shard partials.
type Kind uint8

const (
	// KindCount counts matching transactions.
	KindCount Kind = iota
	// KindMix counts matching transactions by type.
	KindMix
	// KindTopActors ranks the actors mentioned by matching
	// transactions; Query.K bounds the result.
	KindTopActors
	// KindTxns lists matching transactions in chain order with cursor
	// pagination; Query.Limit bounds the page.
	KindTxns
)

func (k Kind) String() string {
	switch k {
	case KindCount:
		return "count"
	case KindMix:
		return "mix"
	case KindTopActors:
		return "top-actors"
	case KindTxns:
		return "txns"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Cursor is an inclusive resume position for KindTxns pages: the
// first record with (Height, Seq) >= (Cursor.Height, Cursor.Seq) is
// the first one delivered. The zero value starts from the beginning.
// Seq is the transaction's index within its original upstream block,
// so cursors are stable across any shard layout.
type Cursor struct {
	Height int64
	Seq    int32
}

func (c Cursor) String() string { return fmt.Sprintf("%d-%d", c.Height, c.Seq) }

// ParseCursor parses the "height-seq" form produced by
// Cursor.String.
func ParseCursor(s string) (Cursor, error) {
	var c Cursor
	if _, err := fmt.Sscanf(s, "%d-%d", &c.Height, &c.Seq); err != nil {
		return Cursor{}, fmt.Errorf("fed: bad cursor %q: %w", s, err)
	}
	return c, nil
}

// before reports whether c orders strictly before o.
func (c Cursor) before(o Cursor) bool {
	if c.Height != o.Height {
		return c.Height < o.Height
	}
	return c.Seq < o.Seq
}

// Query is one federated request.
type Query struct {
	Kind   Kind
	Range  etl.Range
	Filter etl.Filter
	// HasRegion restricts the query to transactions whose RegionOf is
	// Region — the geographic axis region partitions route on.
	HasRegion bool
	Region    int
	// K bounds KindTopActors results (<= 0 means 10).
	K int
	// Cursor and Limit page KindTxns results (Limit <= 0 means 100).
	Cursor Cursor
	Limit  int
}

const (
	defaultTopK      = 10
	defaultPageLimit = 100
)

func (q Query) topK() int {
	if q.K <= 0 {
		return defaultTopK
	}
	return q.K
}

func (q Query) pageLimit() int {
	if q.Limit <= 0 {
		return defaultPageLimit
	}
	return q.Limit
}

// matchesRegion applies the query's region restriction to one txn.
func (q Query) matchesRegion(t chain.Txn) bool {
	return !q.HasRegion || RegionOf(t) == q.Region
}

// TxnRec is one listed transaction: its chain position plus enough
// identity (content hash) for byte-for-byte comparison against any
// other source of the same listing.
type TxnRec struct {
	Height int64     `json:"height"`
	Seq    int32     `json:"seq"`
	Type   string    `json:"type"`
	Hash   string    `json:"hash"`
	Txn    chain.Txn `json:"txn"`

	id chain.TxnID // set by the shard; the merge formats it into Hash
}

func (r TxnRec) cursor() Cursor { return Cursor{Height: r.Height, Seq: r.Seq} }

// ActorCount is one entry of an actor ranking.
type ActorCount struct {
	Actor string `json:"actor"`
	Count int64  `json:"count"`
}

// Partial is one shard's contribution to a query, merged by the
// kind's Strategy. Only the fields for the query's kind are set.
type Partial struct {
	Shard ShardID
	// Tip is the shard store's tip height when it answered, for
	// staleness accounting.
	Tip   int64
	Count int64
	Mix   map[chain.TxnType]int64
	// Actors is the shard's complete mention tally, unordered and not
	// truncated to K: global top-k over per-shard top-k lists is
	// lossy, and each transaction lives on exactly one shard, so
	// summing the full tallies keeps the federated ranking exact.
	Actors []ActorCount
	// Txns is the shard's page in chain order. Shards set each
	// record's ID as the upstream chain kept it and leave Hash unset;
	// the merge formats Hash only for the records that make the
	// merged page.
	Txns []TxnRec
	// More reports the shard had further matching transactions beyond
	// its page limit.
	More bool
}

// ShardInfo describes one shard for operational surfaces (/etl).
type ShardInfo struct {
	ID     ShardID    `json:"id"`
	Slice  string     `json:"slice"`
	Tip    int64      `json:"tip"`
	Blocks int64      `json:"blocks"`
	Txns   int64      `json:"txns"`
	Lag    int64      `json:"lag_blocks"`
	Err    string     `json:"error,omitempty"`
	Health etl.Health `json:"health"`
}

// ShardLag marks a shard that answered from a store trailing the
// source beyond the lag budget.
type ShardLag struct {
	Shard  ShardID `json:"shard"`
	Tip    int64   `json:"tip"`
	Behind int64   `json:"behind"`
}

// Result is a merged federated answer plus the routing and staleness
// facts a caller needs to judge it.
type Result struct {
	Count     int64
	Mix       map[chain.TxnType]int64
	TopActors []ActorCount
	Txns      []TxnRec
	// Next resumes the listing after this page; valid when HasMore.
	Next    Cursor
	HasMore bool

	// Strategy names the aggregation that merged the partials.
	Strategy string
	// Planned lists the shards the router selected; Contributing is
	// how many of them returned non-empty partials.
	Planned      []ShardID
	Contributing int
	// Stale lists answering shards beyond the lag budget; Missing
	// lists planned shards that failed or timed out, whose unanswered
	// height spans appear in Gaps.
	Stale   []ShardLag
	Missing []ShardID
	Gaps    []etl.Gap
	Elapsed time.Duration
	// Cached reports the answer was replayed from the router's result
	// cache rather than fanned out to shards.
	Cached bool
	// ServedStale reports the serve-stale-on-outage path: planned
	// shards were down (crashed, breaker open, timed out), but a
	// complete cached answer within the cache TTL existed, so it was
	// returned — Cached set, the unavailable shards listed in Stale at
	// the cached tip — instead of degrading to Gaps.
	ServedStale bool
}

// Precision is the routing precision of this query: the fraction of
// planned shards that actually held answers (Snippet-3 sense — shards
// hit vs. shards needed). A query with no matches anywhere scores 1:
// the router cannot be blamed for an empty answer.
func (r *Result) Precision() float64 {
	if len(r.Planned) == 0 || r.Contributing == 0 {
		return 1
	}
	return float64(r.Contributing) / float64(len(r.Planned))
}

// Options tunes a router.
type Options struct {
	// PerShardTimeout bounds each shard's query (0 means no per-shard
	// bound beyond the caller's context).
	PerShardTimeout time.Duration
	// Quorum is the minimum fraction of planned shards that must
	// answer for a result to be returned at all (0 means 1.0 — every
	// planned shard). Below quorum the query fails; at or above it,
	// missing shards degrade to reported Gaps.
	Quorum float64
	// LagBudget is how many blocks a shard's store may trail the
	// source before its answers are flagged in Result.Stale.
	LagBudget int64
	// CacheSize caps the router's result cache (entries). 0 means the
	// default (256); negative disables caching. The cache only engages
	// when the router has a source-tip probe to key entries against.
	CacheSize int
	// CacheTTL bounds a cache entry's age. Zero keeps the PR-7
	// semantics: entries live until the source tip advances and are
	// never served across tips. A positive TTL additionally enables
	// serve-stale-on-outage: when planned shards are unavailable, a
	// complete cached answer computed at an older tip is returned —
	// flagged Cached + ServedStale with the down shards in Stale —
	// instead of degrading to Gaps, for as long as the entry is within
	// its TTL.
	CacheTTL time.Duration

	// ShardStore, when set, makes shard nodes durable: it returns the
	// directory and etl config for a shard's store, and the node runs
	// on etl.Open(dir, cfg) instead of an in-memory store. It is called
	// at node start and again at every supervised restart, so a chaos
	// harness can heal or swap the filesystem between incarnations. A
	// restarted node resumes from its sealed segments and WAL tail and
	// re-tails only the blocks it missed.
	ShardStore func(id ShardID) (dir string, cfg etl.Config)
	// WrapSource, when set, wraps each node's block source — the
	// fed-layer fault-injection hook (stalls, disconnects) and the
	// place to hang metrics. Called once per node incarnation.
	WrapSource func(id ShardID, src Source) Source
}

func (o Options) quorum() float64 {
	if o.Quorum <= 0 {
		return 1
	}
	return o.Quorum
}

func (o Options) cacheSize() int {
	if o.CacheSize < 0 {
		return 0
	}
	if o.CacheSize == 0 {
		return defaultCacheSize
	}
	return o.CacheSize
}
