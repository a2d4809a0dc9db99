package peoplesnet

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
	"peoplesnet/internal/live"
)

// replayWorld generates SmallWorld(seed) and returns its chain as read
// back from its own JSON-lines chain file.
func replayWorld(t *testing.T, seed uint64) *chain.Chain {
	t.Helper()
	w, err := Simulate(SmallWorld(seed))
	if err != nil {
		t.Fatalf("seed %d: generate: %v", seed, err)
	}
	var buf bytes.Buffer
	if _, err := w.Chain.WriteTo(&buf); err != nil {
		t.Fatalf("seed %d: write: %v", seed, err)
	}
	c, err := chain.ReadChain(&buf)
	if err != nil {
		t.Fatalf("seed %d: replay: %v", seed, err)
	}
	if c.Height() != w.Chain.Height() || c.TxnCount() != w.Chain.TxnCount() {
		t.Fatalf("seed %d: replayed to height %d with %d txns, want %d and %d",
			seed, c.Height(), c.TxnCount(), w.Chain.Height(), w.Chain.TxnCount())
	}
	return c
}

// TestReplayedWorldReopensLive: SmallWorld(13), one of the seeds whose
// challengers challenge in consecutive hourly blocks, replays from its
// chain file; a durable store bulk-loaded from the replayed chain and
// reopened with no chain attached then folds into a live study with no
// transaction rejected.
func TestReplayedWorldReopensLive(t *testing.T) {
	c := replayWorld(t, 13)
	dir := filepath.Join(t.TempDir(), "store")
	s, err := etl.Open(dir, etl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := etl.Open(dir, etl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Height() != c.Height() {
		t.Fatalf("reopened store at height %d, chain at %d", s2.Height(), c.Height())
	}
	st := live.Attach(s2, live.Options{})
	defer st.Close()
	deadline := time.Now().Add(time.Minute)
	for st.Height() < s2.Height() {
		if time.Now().After(deadline) {
			t.Fatalf("study stuck at height %d, store at %d", st.Height(), s2.Height())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sn := st.Snapshot(); sn.ApplyErrs != 0 {
		t.Fatalf("live study rejected %d txns: %v", sn.ApplyErrs, st.Err())
	}
}
