package etl

// Recovery and lazy loading. Open maps the segment directory without
// reading a single segment: each file becomes a stub carrying only the
// height range parsed from its name, and only the WAL tail is read
// eagerly. A stub materializes — blocks verified, sidecar decoded or
// rebuilt — the first time a query touches it, so a cold store answers
// its first indexed query after reading the WAL plus the touched
// segments instead of the whole directory.
//
// Degradation semantics are unchanged from eager open, only deferred:
// a damaged segment file is quarantined and reported as a Gap at the
// moment its load is attempted; a torn WAL tail is truncated; a
// corrupted WAL body becomes an open-ended Gap. A stub whose load
// failed stays in the segment list serving nothing (queries skip it)
// until Repair sweeps it out and closes the gap from a source chain.

import (
	"fmt"
	"sort"
	"strings"

	"peoplesnet/internal/chain"
)

// Open loads (or initializes) the durable store rooted at dir. It
// never fails on corrupt contents — those are quarantined and surfaced
// through Health and Gaps as they are discovered — only on an unusable
// directory. cfg.FS selects the filesystem (nil means the host's).
//
// Segment contents load lazily; call Preload to force the v1 eager
// behavior, or let the first queries pay only for what they touch.
// Open reads only segments, their sidecars and the WAL; any other file
// in dir, such as a ledger checkpoint an older build wrote, is left
// alone.
func Open(dir string, cfg Config) (*Store, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("etl: open %s: %w", dir, err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("etl: open %s: %w", dir, err)
	}

	s := New(cfg)
	d := &durable{
		fs:  fsys,
		dir: dir,
		wal: newWAL(fsys, join(dir, walFileName)),
	}
	s.dur = d

	// Leftover tmp files are unpublished writes from a crash; the
	// published state never references them.
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			fsys.Remove(join(dir, name))
		}
	}

	// Segment files become stubs in name order, which is height order.
	// The only check possible without reading contents — ranges must
	// not overlap — happens here; everything else waits for the lazy
	// load, which verifies the contents against the name.
	lastTo := int64(-1)
	for _, name := range names {
		from, to, ok := parseSegFileName(name)
		if !ok {
			continue
		}
		if from <= lastTo {
			d.quarantineFile(name, from, to,
				fmt.Errorf("range [%d,%d] overlaps previous segment ending %d", from, to, lastTo))
			continue
		}
		s.sealed = append(s.sealed, &segment{
			from: from, to: to,
			lazy: &lazyState{d: d, name: name},
		})
		lastTo = to
	}
	d.persisted = len(s.sealed)
	// Aggregate contributions fold in when the aggregates are first
	// read (ensureAgg); until then each stub owes one fold.
	s.aggPending = len(s.sealed)

	// The WAL holds the unsealed tail. Records at or below the sealed
	// high-water mark are blocks a crash caught between segment publish
	// and WAL reset — already durable, skipped by height.
	scan := readWAL(fsys, d.wal.path)
	d.setWALRecovery(scan.note)
	for _, b := range scan.blocks {
		if b.Height <= lastTo {
			continue
		}
		s.pending = append(s.pending, b)
		s.pendingTxns += int64(len(b.Txns))
		for _, t := range b.Txns {
			s.agg.observe(b.Height, t)
		}
	}

	if len(s.sealed) > 0 {
		s.first = s.sealed[0].from
		s.tip = s.sealed[len(s.sealed)-1].to
	}
	if n := len(s.pending); n > 0 {
		if s.first < 0 {
			s.first = s.pending[0].Height
		}
		s.tip = s.pending[n-1].Height
	}
	if scan.corrupt {
		// Everything after the last good record is untrustworthy; the
		// true tail height is unknowable from local state alone.
		d.noteGap(Gap{From: s.tip + 1, To: -1})
	}

	// Canonicalize the tail: a WAL big enough to seal seals now (the
	// crash beat the seal to disk), and the log is rewritten to exactly
	// the surviving pending blocks, which also drops any torn tail.
	if len(s.pending) >= s.cfg.SegmentBlocks {
		s.sealLocked() // persists and resets the WAL via durSealLocked
	} else if err := d.wal.reset(s.pending); err != nil {
		d.setPersistErr(&PersistError{Op: "wal reset", Err: err})
	}
	return s, nil
}

// loadLazy materializes one stub: reads and verifies its segment file,
// then decodes (or rebuilds) its sidecar. Called exactly once per stub
// through the lazyState's Once; it takes no store locks. Returns false
// after quarantining an unreadable segment — the stub then serves
// nothing until Repair sweeps it.
func (d *durable) loadLazy(g *segment) bool {
	name := g.lazy.name
	data, err := d.fs.ReadFile(join(d.dir, name))
	if err == nil {
		var blocks []*chain.Block
		if blocks, err = decodeSegFile(data, g.from, g.to); err == nil {
			d.fillSegment(g, name, blocks)
			return true
		}
	}
	d.quarantineFile(name, g.from, g.to, err)
	return false
}

// fillSegment completes a stub from its verified blocks: sidecar
// indexes when the sidecar is sound, otherwise a rebuild from the
// blocks that republishes the sidecar. A missing, damaged or
// other-version sidecar all take the rebuild.
func (d *durable) fillSegment(g *segment, name string, blocks []*chain.Block) {
	if idx, err := d.fs.ReadFile(join(d.dir, idxFileName(name))); err == nil {
		if dec, c, derr := decodeIdxFile(idx, blocks); derr == nil {
			adoptSegment(g, dec, c)
			return
		}
	}
	built := buildSegment(blocks)
	c := computeSegAgg(blocks)
	adoptSegment(g, built, c)
	d.noteSidecarRebuild()
	d.fs.Remove(join(d.dir, idxFileName(name))) // best effort
	writeFileAtomic(d.fs, join(d.dir, idxFileName(name)), encodeIdxFile(built, c))
}

// adoptSegment copies src's load-derived fields into the stub g. The
// writes happen inside the stub's Once, before done publishes them.
func adoptSegment(g, src *segment, c *segAgg) {
	g.blocks = src.blocks
	g.txns = src.txns
	g.mix = src.mix
	g.byType = src.byType
	g.byActor = src.byActor
	g.shared = src.shared
	g.agg = c
}

// quarantineFile moves a damaged segment file (and its sidecar) into
// the quarantine/ subdirectory and records the lost range as a Gap.
func (d *durable) quarantineFile(name string, from, to int64, cause error) {
	qdir := join(d.dir, "quarantine")
	d.fs.MkdirAll(qdir)
	d.fs.Rename(join(d.dir, name), join(qdir, name))
	idx := idxFileName(name)
	d.fs.Rename(join(d.dir, idx), join(qdir, idx))
	d.noteQuarantine(Gap{From: from, To: to},
		&PersistError{Op: "load " + name + " (quarantined)", Err: cause})
}

// Repair closes the store's gaps by re-ingesting the missing heights
// from a source chain, republishing their segment files. Blocks the
// store already holds are never touched. It returns the first persist
// error; unrepairable gaps (heights the chain does not cover) remain
// reported.
//
// Repair first forces every lazy load, so damage not yet discovered by
// queries is found and closed in the same pass, and broken stubs are
// swept out of the segment list before their ranges are refilled.
func (s *Store) Repair(c *chain.Chain) error {
	s.Preload()
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dur
	if d == nil {
		return nil
	}
	gaps := d.gapList()
	if len(gaps) == 0 {
		return nil
	}
	// Sweep broken stubs. Readers hold lock-free snapshots of the old
	// slice, so it is replaced, never edited in place. Broken stubs are
	// always inside the persisted prefix (they exist because a file
	// did), so the prefix shrinks with them.
	removed := 0
	for _, g := range s.sealed {
		if g.broken() {
			removed++
		}
	}
	if removed > 0 {
		kept := make([]*segment, 0, len(s.sealed)-removed)
		for _, g := range s.sealed {
			if !g.broken() {
				kept = append(kept, g)
			}
		}
		s.sealed = kept
		d.persisted -= removed
		s.first, s.tip = -1, -1
		if len(s.sealed) > 0 {
			s.first = s.sealed[0].from
			s.tip = s.sealed[len(s.sealed)-1].to
		}
		if n := len(s.pending); n > 0 {
			if s.first < 0 {
				s.first = s.pending[0].Height
			}
			s.tip = s.pending[n-1].Height
		}
	}

	var firstErr error
	var remaining []Gap
	for _, gap := range gaps {
		to := gap.To
		if to < 0 {
			to = c.Height()
		}
		var missing []*chain.Block
		for _, b := range c.BlocksFrom(gap.From - 1) {
			if b.Height > to {
				break
			}
			if !s.coveredLocked(b.Height) {
				missing = append(missing, b)
			}
		}
		if len(missing) == 0 {
			if gap.To >= 0 && c.Height() < gap.To {
				// The chain cannot vouch for this range; keep reporting.
				remaining = append(remaining, gap)
				if firstErr == nil {
					firstErr = fmt.Errorf("etl: repair: chain tip %d below gap [%d,%d]", c.Height(), gap.From, gap.To)
				}
			}
			continue
		}
		if err := s.repairRunLocked(missing); err != nil {
			remaining = append(remaining, gap)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	d.replaceGaps(remaining)
	// Middle-gap repairs append their close points out of order.
	sort.Slice(s.agg.Closes, func(i, j int) bool { return s.agg.Closes[i].Height < s.agg.Closes[j].Height })
	if firstErr == nil {
		// The store is whole again; clear the quarantine-time note.
		d.setPersistErr(nil)
	}
	s.grown.Broadcast()
	return firstErr
}

// repairRunLocked reinstates one run of missing blocks. Blocks beyond
// the tip go through the normal append path (WAL, then seal); blocks
// filling a middle gap become a sealed segment published immediately.
func (s *Store) repairRunLocked(blocks []*chain.Block) error {
	if blocks[0].Height > s.tip {
		for _, b := range blocks {
			if err := s.appendLocked(b); err != nil {
				return err
			}
		}
		return nil
	}
	g := buildSegment(blocks)
	g.aggFolded = true // folded right below; born materialized
	if err := s.dur.writeSegment(g); err != nil {
		return &PersistError{Op: "repair segment " + segFileName(g.from, g.to), Err: err}
	}
	i := sort.Search(len(s.sealed), func(i int) bool { return s.sealed[i].from > g.from })
	s.sealed = append(s.sealed, nil)
	copy(s.sealed[i+1:], s.sealed[i:])
	s.sealed[i] = g
	// The inserted segment is on disk, and unpersisted segments are
	// always the newest (the slice tail), so the persisted prefix grows.
	s.dur.persisted++
	s.agg.addSegment(g, computeSegAgg(blocks))
	if s.first < 0 || g.from < s.first {
		s.first = g.from
	}
	if g.to > s.tip {
		s.tip = g.to
	}
	return nil
}

// coveredLocked reports whether the store holds a block at height h.
// Stubs load on probe; a broken stub covers nothing.
func (s *Store) coveredLocked(h int64) bool {
	i := sort.Search(len(s.sealed), func(i int) bool { return s.sealed[i].to >= h })
	if i < len(s.sealed) && s.sealed[i].from <= h && s.sealed[i].load() {
		blks := s.sealed[i].blocks
		j := sort.Search(len(blks), func(j int) bool { return blks[j].Height >= h })
		if j < len(blks) && blks[j].Height == h {
			return true
		}
	}
	j := sort.Search(len(s.pending), func(j int) bool { return s.pending[j].Height >= h })
	return j < len(s.pending) && s.pending[j].Height == h
}

// Close flushes the durable state and releases the WAL handle. The
// store stays queryable; only further appends need a reopen. Close on
// a memory-only store is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dur
	if d == nil {
		return nil
	}
	var err error
	if d.persistFailure() != nil || d.wal.dirty {
		err = s.syncDiskLocked()
	}
	d.wal.close()
	return err
}
