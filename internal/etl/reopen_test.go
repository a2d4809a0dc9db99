package etl

// Reopen lifecycle tests: sidecar codec versions, files Open does not
// know, and lazy cold start. These live in the internal package
// because they rewrite sidecar frames byte for byte.

import (
	"path/filepath"
	"reflect"
	"testing"

	"peoplesnet/internal/chain"
)

// scanAll maps height → ordered txn hashes through the public scan.
func scanAll(s *Store) map[int64][]string {
	out := make(map[int64][]string)
	s.Scan(All(), Filter{}, func(h int64, t chain.Txn) bool {
		out[h] = append(out[h], chain.Hash(t))
		return true
	})
	return out
}

// buildDiskStore ingests a worldChain into a fresh on-disk store and
// returns the open store and its directory.
func buildDiskStore(t *testing.T, nBlocks int) (*Store, *chain.Chain, string) {
	t.Helper()
	c := worldChain(t, nBlocks)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir, Config{SegmentBlocks: 8})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.BulkLoad(c); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	return s, c, dir
}

// chainAll maps height → ordered txn hashes through a raw chain scan,
// the reference scanAll must equal.
func chainAll(c *chain.Chain) map[int64][]string {
	out := make(map[int64][]string)
	c.Scan(func(h int64, t chain.Txn) bool {
		out[h] = append(out[h], chain.Hash(t))
		return true
	})
	return out
}

// TestSidecarOtherVersionRebuilt: a sound sidecar frame carrying
// another codec version is neither decoded nor treated as damage to
// the segment. The first load rebuilds it from the verified blocks and
// republishes it at the current version, so the next open decodes it
// without rebuilding anything. That open also finds the ledger.ckpt
// file older builds wrote, and ignores it.
func TestSidecarOtherVersionRebuilt(t *testing.T) {
	s, c, dir := buildDiskStore(t, 60)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	names, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	rewritten := 0
	for _, name := range names {
		if _, _, ok := parseSegFileName(name); !ok {
			continue
		}
		path := join(dir, idxFileName(name))
		data := mustRead(t, path)
		payload, rest, err := readFrame(data[len(idxMagic):])
		if err != nil || len(rest) != 0 || payload[0] != idxCodecVersion {
			t.Fatalf("%s: not a sound current-version sidecar (err %v)", path, err)
		}
		old := append([]byte(nil), payload...)
		old[0] = idxCodecVersion - 1
		if err := writeFileAtomic(OSFS{}, path, appendFrame([]byte(idxMagic), old)); err != nil {
			t.Fatalf("rewrite %s: %v", path, err)
		}
		rewritten++
	}
	if rewritten == 0 {
		t.Fatal("no sidecars to rewrite")
	}

	s2, err := Open(dir, Config{SegmentBlocks: 8})
	if err != nil {
		t.Fatalf("reopen over old-version sidecars: %v", err)
	}
	if got, want := scanAll(s2), chainAll(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("store over rebuilt sidecars differs from the chain: %d vs %d heights", len(got), len(want))
	}
	if got, want := s2.Aggregates(), FromChain(c).Aggregates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt aggregates differ from a fresh index:\n got %+v\nwant %+v", got, want)
	}
	h := s2.Health()
	if h.SidecarsRebuilt != rewritten || h.Quarantined != 0 || len(h.Gaps) != 0 {
		t.Fatalf("health after reopen: rebuilt %d (want %d), quarantined %d, gaps %v",
			h.SidecarsRebuilt, rewritten, h.Quarantined, h.Gaps)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close after rebuild: %v", err)
	}

	// A sound frame in the layout of the ledger checkpoint older builds
	// kept beside the segments: magic, then version 1, height and a
	// ledger snapshot.
	stale := join(dir, "ledger.ckpt")
	if err := writeFileAtomic(OSFS{}, stale, appendFrame([]byte("PNETLCK1"), []byte{1, 0x10, 2, 2, 0})); err != nil {
		t.Fatalf("plant stale checkpoint: %v", err)
	}
	s3, err := Open(dir, Config{SegmentBlocks: 8})
	if err != nil {
		t.Fatalf("reopen after rebuild: %v", err)
	}
	defer s3.Close()
	s3.Preload()
	if h := s3.Health(); h.SidecarsRebuilt != 0 || h.Quarantined != 0 || len(h.Gaps) != 0 {
		t.Fatalf("open after rebuild is not clean: %+v", h)
	}
	if got, want := scanAll(s3), chainAll(c); !reflect.DeepEqual(got, want) {
		t.Fatal("store after rebuild differs from the chain")
	}
	mustRead(t, stale) // Open leaves a file it does not know where it is
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := OSFS{}.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

// TestLazyColdStart: a reopened store materializes nothing up front; a
// height-scoped scan touches only the overlapping segments, and
// Preload finishes the job.
func TestLazyColdStart(t *testing.T) {
	s, _, dir := buildDiskStore(t, 80)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Config{SegmentBlocks: 8})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	h := s2.Health()
	if h.SegmentsLoaded != 0 {
		t.Fatalf("cold open loaded %d segments, want 0", h.SegmentsLoaded)
	}
	if h.Segments == 0 {
		t.Fatal("cold open sees no segments")
	}

	// One segment's worth of heights: only that stub should load.
	tip := s2.Height()
	n := int64(0)
	s2.Scan(Range{From: tip - 3, To: tip}, Filter{}, func(int64, chain.Txn) bool {
		n++
		return true
	})
	if n == 0 {
		t.Fatal("scoped scan matched nothing")
	}
	mid := s2.Health()
	if mid.SegmentsLoaded == 0 {
		t.Fatal("scoped scan loaded no segments")
	}
	if mid.SegmentsLoaded >= mid.Segments {
		t.Fatalf("scoped scan loaded all %d segments; lazy access is not lazy", mid.Segments)
	}

	s2.Preload()
	if h := s2.Health(); h.SegmentsLoaded != h.Segments {
		t.Fatalf("Preload left %d of %d segments unloaded", h.Segments-h.SegmentsLoaded, h.Segments)
	}
}
