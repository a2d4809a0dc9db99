package etl

// On-disk formats for the durable store. A store directory holds:
//
//	seg-<from>-<to>.seg   sealed segment: the blocks themselves
//	seg-<from>-<to>.idx   index sidecar: posting lists + the segment's
//	                      contribution to the materialized aggregates
//	wal.log               write-ahead log holding the unsealed tail
//	quarantine/           corrupt files moved aside by recovery
//
// Every file is a magic string followed by checksummed frames:
//
//	[u32 len][u32 hcrc][u32 pcrc][payload]
//
// pcrc covers the payload; hcrc covers len and pcrc, so a flipped bit
// in the length field is caught before it misdirects the parse. All
// integers are little-endian; payloads use internal/wire primitives
// and chain.EncodeBlock.
//
// Publication is always write-tmp → fsync → rename, so a reader never
// sees a partially written segment or sidecar. The WAL is the one
// append-in-place file; its recovery semantics live in wal.go.
//
// Crash-ordering contract for a seal: segment file is published, then
// its sidecar, then the WAL is reset to the (now empty) pending tail.
// Recovery therefore handles every intermediate state: a segment with
// no sidecar rebuilds the sidecar from its blocks; a WAL still holding
// blocks that a segment file also covers dedupes them by height.
//
// Sidecars carry a codec version (idxCodecVersion). A sidecar of any
// other version fails to decode like a damaged one, and the segment's
// first load rebuilds it from the verified blocks and republishes it,
// so a codec change needs no migration code. Segment files carry their
// own version (segCodecVersion).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/wire"
)

const (
	walMagic = "PNETLWL1"
	segMagic = "PNETLSG1"
	idxMagic = "PNETLIX1"

	segCodecVersion = 1
	idxCodecVersion = 3

	walFileName = "wal.log"
	tmpSuffix   = ".tmp"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PersistError wraps a failed store write. An Append that returns a
// *PersistError left the store's accepted state untouched: the same
// block may be retried once the underlying fault clears, which is what
// the Follower's backoff loop does.
type PersistError struct {
	Op  string
	Err error
}

func (e *PersistError) Error() string { return "etl: persist " + e.Op + ": " + e.Err.Error() }
func (e *PersistError) Unwrap() error { return e.Err }

// frame errors classify what a bad frame means. A torn frame is a
// write that never finished — the tail a crash leaves — and is safe to
// drop because the store never acknowledged it. A corrupt frame fails
// its checksum despite being structurally complete: acknowledged data
// has been damaged, and dropping it is data loss that must be reported.
var (
	errFrameTorn    = errors.New("torn frame")
	errFrameCorrupt = errors.New("corrupt frame")
)

// appendFrame appends one checksummed frame holding payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(payload, castagnoli))
	h := crc32.Checksum(hdr[0:4], castagnoli)
	h = crc32.Update(h, castagnoli, hdr[8:12])
	binary.LittleEndian.PutUint32(hdr[4:], h)
	return append(append(dst, hdr[:]...), payload...)
}

// readFrame consumes one frame from data. A short or checksum-failing
// frame returns errFrameTorn or errFrameCorrupt; the distinction
// drives recovery (truncate silently vs. report a gap). Because frames
// are written front-to-back in single Write calls, a crash can only
// leave a *prefix* of a frame — if the 12 header bytes are present and
// self-consistent, the length is trustworthy and a short payload means
// the crash hit mid-payload; a checksum mismatch on complete bytes can
// only be damage to previously acknowledged data.
func readFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < 12 {
		return nil, nil, errFrameTorn
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	hcrc := binary.LittleEndian.Uint32(data[4:8])
	pcrc := binary.LittleEndian.Uint32(data[8:12])
	h := crc32.Checksum(data[0:4], castagnoli)
	h = crc32.Update(h, castagnoli, data[8:12])
	if h != hcrc {
		return nil, nil, errFrameCorrupt
	}
	if uint64(len(data)-12) < uint64(n) {
		return nil, nil, errFrameTorn
	}
	payload = data[12 : 12+int(n)]
	if crc32.Checksum(payload, castagnoli) != pcrc {
		return nil, nil, errFrameCorrupt
	}
	return payload, data[12+int(n):], nil
}

// --- file naming ----------------------------------------------------------

func segFileName(from, to int64) string {
	return fmt.Sprintf("seg-%016x-%016x.seg", uint64(from), uint64(to))
}

func idxFileName(segName string) string {
	return strings.TrimSuffix(segName, ".seg") + ".idx"
}

// parseSegFileName extracts the height range a segment file claims to
// cover. Lazy open trusts the name for the stub's range (contents are
// verified against it on first load), and the range in the name is
// what recovery reports as the gap when the contents are unreadable.
func parseSegFileName(name string) (from, to int64, ok bool) {
	var f, t uint64
	if _, err := fmt.Sscanf(name, "seg-%016x-%016x.seg", &f, &t); err != nil {
		return 0, 0, false
	}
	if name != segFileName(int64(f), int64(t)) || int64(f) > int64(t) || int64(f) < 0 {
		return 0, 0, false
	}
	return int64(f), int64(t), true
}

// --- durable state --------------------------------------------------------

// durable is the store's persistence state. persisted and the wal are
// guarded by the store's mu (only ingest and recovery touch them); the
// health/recovery fields are guarded by hmu, a leaf lock, because lazy
// segment loads mutate them from reader goroutines that hold no store
// lock. Lock order: s.mu (if held at all) before hmu; nothing is
// called while holding hmu.
type durable struct {
	fs  FS
	dir string
	wal *wal

	// persisted counts the prefix of s.sealed already published as
	// segment files; segments past it are durable only through the WAL
	// until a retry succeeds. Lazy stubs are always inside the
	// persisted prefix — they exist because their files do.
	persisted int

	hmu             sync.Mutex
	persistErr      error  // guarded by hmu; last failed disk sync, retried on the next append
	quarantined     int    // guarded by hmu
	sidecarsRebuilt int    // guarded by hmu; missing, damaged or other-version sidecars rebuilt from blocks
	walRecovery     string // guarded by hmu; note from Open: torn/corrupt WAL classification
	gaps            []Gap  // guarded by hmu
}

// setPersistErr records (or clears) the last persistence failure.
func (d *durable) setPersistErr(err error) {
	d.hmu.Lock()
	d.persistErr = err
	d.hmu.Unlock()
}

// persistFailure returns the last recorded persistence failure.
func (d *durable) persistFailure() error {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return d.persistErr
}

// noteQuarantine records one quarantined segment and its lost range.
func (d *durable) noteQuarantine(gap Gap, cause error) {
	d.hmu.Lock()
	d.quarantined++
	d.gaps = insertGap(d.gaps, gap)
	d.persistErr = cause
	d.hmu.Unlock()
}

// noteGap records a lost range not tied to a quarantined file (the
// corrupt-WAL open-ended gap).
func (d *durable) noteGap(gap Gap) {
	d.hmu.Lock()
	d.gaps = insertGap(d.gaps, gap)
	d.hmu.Unlock()
}

// insertGap keeps the gap list sorted by From, so concurrent lazy
// loads discovering damage in any order report the same Gaps.
func insertGap(gaps []Gap, g Gap) []Gap {
	i := sort.Search(len(gaps), func(i int) bool { return gaps[i].From > g.From })
	gaps = append(gaps, Gap{})
	copy(gaps[i+1:], gaps[i:])
	gaps[i] = g
	return gaps
}

// noteSidecarRebuild counts a sidecar reconstruction.
func (d *durable) noteSidecarRebuild() {
	d.hmu.Lock()
	d.sidecarsRebuilt++
	d.hmu.Unlock()
}

// setWALRecovery records Open's WAL damage classification.
func (d *durable) setWALRecovery(note string) {
	d.hmu.Lock()
	d.walRecovery = note
	d.hmu.Unlock()
}

// gapList returns a copy of the recorded gaps.
func (d *durable) gapList() []Gap {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return append([]Gap(nil), d.gaps...)
}

// replaceGaps swaps the recorded gap set (Repair's remainder).
func (d *durable) replaceGaps(gaps []Gap) {
	d.hmu.Lock()
	d.gaps = gaps
	d.hmu.Unlock()
}

// Gap is a height range the store lost to corruption and cannot serve.
// To == -1 means open-ended: the tail of the log was damaged and the
// true end is unknown. Repair closes gaps from a source chain.
type Gap struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// Health is a snapshot of the store's durability state.
type Health struct {
	Durable       bool   `json:"durable"`
	Dir           string `json:"dir,omitempty"`
	Segments      int    `json:"segments"`
	PendingBlocks int    `json:"pending_blocks"`
	// SegmentsLoaded counts segments materialized in memory; a lazily
	// opened store starts at 0 and climbs as queries touch segments.
	SegmentsLoaded  int   `json:"segments_loaded"`
	WALDepth        int   `json:"wal_depth"`
	WALBytes        int64 `json:"wal_bytes"`
	Quarantined     int   `json:"quarantined"`
	SidecarsRebuilt int   `json:"sidecars_rebuilt"`
	Gaps            []Gap `json:"gaps,omitempty"`
	// IngestRetries counts transient persist faults the store's feeder
	// retried (cumulative); a climbing value on a "healthy" store is a
	// flapping disk.
	IngestRetries int64     `json:"ingest_retries,omitempty"`
	LastAppend    time.Time `json:"last_append,omitzero"`
	LastError     string    `json:"last_error,omitempty"`
	WALRecovery   string    `json:"wal_recovery,omitempty"`
}

// Health reports the store's durability state. For a memory-only store
// it carries just the shape counters. Broken segments — stubs whose
// lazy load failed — are excluded from Segments, matching the eager
// quarantine accounting: their ranges are in Gaps.
func (s *Store) Health() Health {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := Health{
		PendingBlocks: len(s.pending),
		IngestRetries: s.ingestRetries.Load(),
		LastAppend:    s.lastAppend,
	}
	for _, g := range s.sealed {
		if g.broken() {
			continue
		}
		h.Segments++
		if g.loaded() {
			h.SegmentsLoaded++
		}
	}
	if d := s.dur; d != nil {
		h.Durable = true
		h.Dir = d.dir
		h.WALDepth = d.wal.depth
		h.WALBytes = d.wal.size
		d.fillHealth(&h)
	}
	return h
}

// fillHealth copies the hmu-guarded durability fields into h.
func (d *durable) fillHealth(h *Health) {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	h.Quarantined = d.quarantined
	h.SidecarsRebuilt = d.sidecarsRebuilt
	h.Gaps = append([]Gap(nil), d.gaps...)
	h.WALRecovery = d.walRecovery
	if d.persistErr != nil {
		h.LastError = d.persistErr.Error()
	}
}

// Gaps returns the height ranges lost to corruption, if any.
func (s *Store) Gaps() []Gap {
	s.mu.RLock()
	d := s.dur
	s.mu.RUnlock()
	if d == nil {
		return nil
	}
	return d.gapList()
}

// --- atomic file publish --------------------------------------------------

// writeFileAtomic publishes content at path via tmp+fsync+rename.
func writeFileAtomic(fsys FS, path string, content []byte) error {
	tmp := path + tmpSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(content); err != nil {
		_ = f.Close() // already failing; the write error wins
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // already failing; the sync error wins
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// --- segment files --------------------------------------------------------

// encodeSegFile serializes a sealed segment's blocks: magic, a header
// frame, then one frame per block.
func encodeSegFile(g *segment) []byte {
	var hdr wire.Writer
	hdr.U8(segCodecVersion)
	hdr.Varint(g.from)
	hdr.Varint(g.to)
	hdr.Uvarint(uint64(len(g.blocks)))
	buf := appendFrame([]byte(segMagic), hdr.Buf)
	var scratch []byte
	for _, b := range g.blocks {
		scratch = chain.EncodeBlock(scratch[:0], b)
		buf = appendFrame(buf, scratch)
	}
	return buf
}

// decodeSegFile parses a segment file back into its blocks. Any
// damage — bad magic, bad frame, undecodable block, heights that
// disagree with the claimed range — returns an error; the caller
// quarantines the file.
func decodeSegFile(data []byte, wantFrom, wantTo int64) ([]*chain.Block, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, errors.New("bad segment magic")
	}
	payload, rest, err := readFrame(data[len(segMagic):])
	if err != nil {
		return nil, fmt.Errorf("segment header: %w", err)
	}
	r := wire.NewReader(payload)
	if v := r.U8(); r.Err() == nil && v != segCodecVersion {
		return nil, fmt.Errorf("unknown segment version %d", v)
	}
	from, to := r.Varint(), r.Varint()
	nblocks := r.Uvarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("segment header: %w", r.Err())
	}
	if from != wantFrom || to != wantTo {
		return nil, fmt.Errorf("segment header range [%d,%d] disagrees with name [%d,%d]", from, to, wantFrom, wantTo)
	}
	// The block frames follow the header frame; bound the count by the
	// bytes left (12-byte frame header minimum per block) so a damaged
	// count cannot drive a huge allocation.
	if nblocks == 0 || nblocks > uint64(len(rest))/12 {
		return nil, fmt.Errorf("implausible block count %d for %d remaining bytes", nblocks, len(rest))
	}
	n := int(nblocks)
	blocks := make([]*chain.Block, 0, n)
	prev := from - 1
	for i := 0; i < n; i++ {
		payload, rest, err = readFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("segment block %d: %w", i, err)
		}
		b, err := chain.DecodeBlock(payload)
		if err != nil {
			return nil, fmt.Errorf("segment block %d: %w", i, err)
		}
		if b.Height <= prev || b.Height > to {
			return nil, fmt.Errorf("segment block %d height %d outside (%d,%d]", i, b.Height, prev, to)
		}
		prev = b.Height
		blocks = append(blocks, b)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after segment blocks", len(rest))
	}
	if blocks[0].Height != from || blocks[n-1].Height != to {
		return nil, fmt.Errorf("segment blocks span [%d,%d], claimed [%d,%d]",
			blocks[0].Height, blocks[n-1].Height, from, to)
	}
	return blocks, nil
}

// --- index sidecars -------------------------------------------------------

// segAgg is one segment's contribution to the store-wide aggregates.
// Persisting it in the sidecar lets a load merge per-segment sums
// instead of re-observing every transaction — most of the cold-start
// win over re-indexing. (Mix and the txn count are not duplicated
// here: the segment's own mix is the same numbers.)
type segAgg struct {
	addsPerDay          map[int64]int64
	assertsPerGateway   map[string]int64
	transfersPerGateway map[string]int64
	transfers, zeroHNT  int64
	closes              []ClosePoint
	totalPackets        int64
}

// computeSegAgg folds a segment's blocks through the same observe path
// ingest uses, yielding its aggregate contribution.
func computeSegAgg(blocks []*chain.Block) *segAgg {
	scratch := newAggregates()
	for _, b := range blocks {
		for _, t := range b.Txns {
			scratch.observe(b.Height, t)
		}
	}
	return &segAgg{
		addsPerDay:          scratch.AddsPerDay,
		assertsPerGateway:   scratch.AssertsPerGateway,
		transfersPerGateway: scratch.TransfersPerGateway,
		transfers:           scratch.Transfers,
		zeroHNT:             scratch.ZeroHNTTransfers,
		closes:              scratch.Closes,
		totalPackets:        scratch.TotalPackets,
	}
}

// addSegment merges a sealed segment and its contribution into the
// live aggregates.
func (a *aggregates) addSegment(g *segment, c *segAgg) {
	a.txnCount += g.txns
	for tt, n := range g.mix {
		a.Mix[tt] += n
	}
	for d, n := range c.addsPerDay {
		a.AddsPerDay[d] += n
	}
	for k, n := range c.assertsPerGateway {
		a.AssertsPerGateway[k] += n
	}
	for k, n := range c.transfersPerGateway {
		a.TransfersPerGateway[k] += n
	}
	a.Transfers += c.transfers
	a.ZeroHNTTransfers += c.zeroHNT
	a.Closes = append(a.Closes, c.closes...)
	a.TotalPackets += c.totalPackets
}

// encodePostings writes a compressed posting list: its entry count,
// then the delta+varint buffer as an opaque blob. The in-memory and
// on-disk representations are the same bytes.
func encodePostings(w *wire.Writer, p *postings) {
	if p == nil {
		w.Uvarint(0)
		w.Bytes(nil)
		return
	}
	w.Uvarint(uint64(p.n))
	w.Bytes(p.buf)
}

// decodePostings reads a compressed posting list and validates it once
// against the segment's blocks — entry count, monotonic order, bounds,
// and type bytes all checked here so scans can decode without checks.
// The returned buffer aliases the sidecar's bytes (zero copy). A bad
// list fails the Reader; the caller falls back to rebuilding.
func decodePostings(r *wire.Reader, blocks []*chain.Block, typed bool, tt chain.TxnType) *postings {
	n := r.Count(1)
	buf := r.Bytes()
	if r.Err() != nil {
		return nil
	}
	p := &postings{n: n, typed: typed, buf: buf}
	if err := p.validate(blocks, tt); err != nil {
		r.Fail(err)
		return nil
	}
	if n == 0 {
		return nil
	}
	return p
}

// encodeIdxFile serializes a segment's sidecar: indexes plus aggregate
// contribution. Map iteration order is pinned by sorting keys, so the
// same segment always writes identical bytes.
func encodeIdxFile(g *segment, c *segAgg) []byte {
	var w wire.Writer
	w.U8(idxCodecVersion)
	w.Varint(g.from)
	w.Varint(g.to)
	w.Varint(g.txns)

	mixKeys := make([]int, 0, len(g.mix))
	for tt := range g.mix {
		mixKeys = append(mixKeys, int(tt))
	}
	sort.Ints(mixKeys)
	w.Uvarint(uint64(len(mixKeys)))
	for _, tt := range mixKeys {
		w.U8(uint8(tt))
		w.Varint(g.mix[chain.TxnType(tt)])
	}

	typeKeys := make([]int, 0, len(g.byType))
	for tt := range g.byType {
		typeKeys = append(typeKeys, int(tt))
	}
	sort.Ints(typeKeys)
	w.Uvarint(uint64(len(typeKeys)))
	for _, tt := range typeKeys {
		w.U8(uint8(tt))
		encodePostings(&w, g.byType[chain.TxnType(tt)])
	}

	actors := make([]string, 0, len(g.byActor))
	for a := range g.byActor {
		actors = append(actors, a)
	}
	sort.Strings(actors)
	w.Uvarint(uint64(len(actors)))
	for _, a := range actors {
		w.Str(a)
		encodePostings(&w, g.byActor[a])
	}

	encodePostings(&w, g.shared)

	days := make([]int64, 0, len(c.addsPerDay))
	for d := range c.addsPerDay {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	w.Uvarint(uint64(len(days)))
	for _, d := range days {
		w.Varint(d)
		w.Varint(c.addsPerDay[d])
	}
	writeStrCounts(&w, c.assertsPerGateway)
	writeStrCounts(&w, c.transfersPerGateway)
	w.Varint(c.transfers)
	w.Varint(c.zeroHNT)
	w.Uvarint(uint64(len(c.closes)))
	for _, cp := range c.closes {
		w.Varint(cp.Height)
		w.Varint(cp.Packets)
	}
	w.Varint(c.totalPackets)

	return appendFrame([]byte(idxMagic), w.Buf)
}

func writeStrCounts(w *wire.Writer, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Str(k)
		w.Varint(m[k])
	}
}

// decodeIdxFile reconstructs a segment's indexes and aggregate
// contribution from its sidecar. blocks are the already-verified
// segment blocks; every posting list is validated against them. An
// error here never quarantines anything — the caller falls back to
// rebuilding the sidecar from the blocks.
func decodeIdxFile(data []byte, blocks []*chain.Block) (*segment, *segAgg, error) {
	if len(data) < len(idxMagic) || string(data[:len(idxMagic)]) != idxMagic {
		return nil, nil, errors.New("bad sidecar magic")
	}
	payload, rest, err := readFrame(data[len(idxMagic):])
	if err != nil {
		return nil, nil, fmt.Errorf("sidecar frame: %w", err)
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes after sidecar frame", len(rest))
	}
	r := wire.NewReader(payload)
	if v := r.U8(); r.Err() == nil && v != idxCodecVersion {
		return nil, nil, fmt.Errorf("unknown sidecar version %d", v)
	}
	g := &segment{
		blocks:  blocks,
		mix:     make(map[chain.TxnType]int64),
		byType:  make(map[chain.TxnType]*postings),
		byActor: make(map[string]*postings),
	}
	g.from = r.Varint()
	g.to = r.Varint()
	g.txns = r.Varint()
	if r.Err() == nil &&
		(g.from != blocks[0].Height || g.to != blocks[len(blocks)-1].Height) {
		return nil, nil, fmt.Errorf("sidecar range [%d,%d] disagrees with blocks", g.from, g.to)
	}

	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		tt := chain.TxnType(r.U8())
		g.mix[tt] = r.Varint()
	}
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		tt := chain.TxnType(r.U8())
		if ps := decodePostings(r, blocks, false, tt); ps != nil {
			g.byType[tt] = ps
		}
	}
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		a := r.Str()
		if ps := decodePostings(r, blocks, true, 0); ps != nil {
			g.byActor[a] = ps
		}
	}
	g.shared = decodePostings(r, blocks, true, 0)
	if g.shared == nil {
		g.shared = &postings{typed: true}
	}

	c := &segAgg{
		addsPerDay:          make(map[int64]int64),
		assertsPerGateway:   make(map[string]int64),
		transfersPerGateway: make(map[string]int64),
	}
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		d := r.Varint()
		c.addsPerDay[d] = r.Varint()
	}
	readStrCounts(r, c.assertsPerGateway)
	readStrCounts(r, c.transfersPerGateway)
	c.transfers = r.Varint()
	c.zeroHNT = r.Varint()
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		cp := ClosePoint{Height: r.Varint(), Packets: r.Varint()}
		c.closes = append(c.closes, cp)
	}
	c.totalPackets = r.Varint()
	if r.Err() != nil {
		return nil, nil, r.Err()
	}
	if r.Remaining() != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes in sidecar payload", r.Remaining())
	}
	return g, c, nil
}

func readStrCounts(r *wire.Reader, m map[string]int64) {
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		k := r.Str()
		m[k] = r.Varint()
	}
}

// --- seal persistence -----------------------------------------------------

// syncDiskLocked brings the directory in line with memory: publishes
// every sealed segment not yet on disk, then resets the WAL to exactly
// the pending tail. Caller holds s.mu. On success the store's durable
// invariant holds again: every accepted block is in a published
// segment file or in the fsynced WAL.
func (s *Store) syncDiskLocked() error {
	d := s.dur
	for d.persisted < len(s.sealed) {
		g := s.sealed[d.persisted]
		if err := d.writeSegment(g); err != nil {
			return &PersistError{Op: "segment " + segFileName(g.from, g.to), Err: err}
		}
		d.persisted++
	}
	if err := d.wal.reset(s.pending); err != nil {
		return &PersistError{Op: "wal reset", Err: err}
	}
	d.setPersistErr(nil)
	return nil
}

// writeSegment publishes one sealed segment: blocks first, sidecar
// second, so a crash between the two leaves a rebuildable state.
func (d *durable) writeSegment(g *segment) error {
	name := segFileName(g.from, g.to)
	if err := writeFileAtomic(d.fs, join(d.dir, name), encodeSegFile(g)); err != nil {
		return err
	}
	c := computeSegAgg(g.blocks)
	return writeFileAtomic(d.fs, join(d.dir, idxFileName(name)), encodeIdxFile(g, c))
}

// durAppendLocked makes b durable before the in-memory ingest accepts
// it. Caller holds s.mu. A non-nil return means nothing was accepted
// and the same block may be retried.
func (s *Store) durAppendLocked(b *chain.Block) error {
	d := s.dur
	if d.persistFailure() != nil || d.wal.dirty {
		// A previous failure left the disk behind memory. Converge
		// first — the WAL rebuild below re-logs the full backlog
		// (unpersisted sealed segments plus pending), so nothing
		// already accepted can be lost by the retry.
		if err := s.syncDiskLocked(); err != nil {
			d.setPersistErr(err)
			return err
		}
	}
	if err := d.wal.append(b); err != nil {
		perr := &PersistError{Op: "wal append", Err: err}
		d.setPersistErr(perr)
		return perr
	}
	return nil
}

// durSealLocked persists the just-sealed segment and shrinks the WAL.
// Failures are recorded, not returned: the sealed blocks are already
// durable through the WAL, so the seal retries on a later append
// without failing this one.
func (s *Store) durSealLocked() {
	if err := s.syncDiskLocked(); err != nil {
		s.dur.setPersistErr(err)
	}
}
