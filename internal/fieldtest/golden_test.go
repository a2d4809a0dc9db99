package fieldtest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"peoplesnet/internal/stats"
)

// resultFingerprint digests everything a Result carries: every packet
// outcome, the validity cells, the miss runs, the per-hotspot ferry
// counts and the sorted RSSI samples behind each CDF. JSON encodes a
// float64 in its shortest round-tripping form and sorts map keys, so
// two results share a fingerprint only if they are bit-identical.
func resultFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	rssi := make(map[string][]stats.Point, len(r.RSSIByHotspot))
	for name, cdf := range r.RSSIByHotspot {
		rssi[name] = cdf.Points(cdf.N())
	}
	raw, err := json.Marshal(struct {
		*Result
		RSSIByHotspot map[string][]stats.Point
	}{r, rssi})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16])
}

// scenarioRun is one memoized run and the bytes the heap allocated
// while it executed.
type scenarioRun struct {
	res        *Result
	allocBytes uint64
}

// runs memoizes scenario runs so that tests sharing a (scenario, seed)
// pair pay for the run once.
var runs = map[string]scenarioRun{}

func runScenario(t *testing.T, name string, scenario func(uint64) Config, seed uint64) scenarioRun {
	t.Helper()
	key := fmt.Sprintf("%s/%d", name, seed)
	if r, ok := runs[key]; ok {
		return r
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(scenario(seed))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	r := scenarioRun{res: res, allocBytes: after.TotalAlloc - before.TotalAlloc}
	runs[key] = r
	return r
}

// TestGoldenScenarios pins the seed-7 result of each §8 scenario (the
// seed the benchmark's reproduce workload runs). Any change to the
// draw order, the radio model, the device's ACK bookkeeping or the
// router's purchase path shows up here as a fingerprint mismatch —
// bump the constants only for a deliberate change to the experiments,
// never to quiet an accidental one.
func TestGoldenScenarios(t *testing.T) {
	cases := []struct {
		name     string
		scenario func(uint64) Config
		want     string
	}{
		{"best-case", BestCase, "8702002d34fa1c9e65f35d24a9b85575"},
		{"residential", Residential, "a17c6b08b42e2e5da500dbde1db0c3bb"},
		{"urban-walk", UrbanWalk, "ed43f719e4454d5d81af2e1f0af59df4"},
		{"suburban-walk", SuburbanWalk, "c37df6a47b3eba536a9b8441d911efda"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "best-case" && testing.Short() {
				t.Skip("24 virtual hours; skipped in -short")
			}
			res := runScenario(t, tc.name, tc.scenario, 7).res
			if got := resultFingerprint(t, res); got != tc.want {
				t.Fatalf("%s seed 7 fingerprint = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

// TestBestCaseAllocPerPacket bounds the heap bytes one BestCase run
// allocates per packet sent. Per-packet work (frame, purchase, ACK) is
// a few KB; a per-packet copy of the growing send log made it ~100 KB
// and quadratic in the run's length.
func TestBestCaseAllocPerPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("24 virtual hours; skipped in -short")
	}
	const maxBytesPerPacket = 16 << 10
	r := runScenario(t, "best-case", BestCase, 7)
	perPacket := r.allocBytes / uint64(r.res.Sent)
	t.Logf("%d packets, %d bytes allocated per packet", r.res.Sent, perPacket)
	if perPacket > maxBytesPerPacket {
		t.Fatalf("BestCase allocates %d bytes per packet, bound %d", perPacket, maxBytesPerPacket)
	}
}
