package analysis

import (
	"strings"
	"testing"
)

func TestDeterminismFixture(t *testing.T) {
	res := runFixture(t, "determinism", Determinism,
		"peoplesnet/internal/chain",   // exports its visitors' facts first
		"peoplesnet/internal/simnet",  // the deterministic package under test
		"peoplesnet/internal/hotspot", // operational: outside the set
	)
	// Exactly one finding escapes through the well-formed allow, and
	// its audit record carries the comment's reason.
	if len(res.Suppressions) != 1 {
		t.Fatalf("determinism fixture expects exactly 1 suppression, got %d: %+v",
			len(res.Suppressions), res.Suppressions)
	}
	s := res.Suppressions[0]
	if s.Analyzer != "determinism" {
		t.Errorf("suppression recorded for analyzer %q, want determinism", s.Analyzer)
	}
	if !strings.Contains(s.Reason, "sanctioned real-time boundary") {
		t.Errorf("suppression reason %q lost the comment's justification", s.Reason)
	}
	if !strings.Contains(s.Message, "time.Now") {
		t.Errorf("suppression message %q should preserve the silenced finding", s.Message)
	}
}
