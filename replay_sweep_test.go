//go:build replaysweep

package peoplesnet

import (
	"fmt"
	"testing"
)

// TestReplaySweep generates SmallWorld seeds 1–30 and round-trips each
// chain through its chain file. It takes about 30 s on two CPUs,
// so it runs under the replaysweep build tag (`make replay-sweep`)
// rather than in the plain `go test ./...`.
func TestReplaySweep(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			replayWorld(t, seed)
		})
	}
}
