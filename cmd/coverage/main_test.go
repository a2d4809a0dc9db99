package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestSmallWorld: -scale small -seed 1 prints the four Fig 12 models,
// both witness distributions and, with -map, the density map, and the
// same seed prints the same study twice.
func TestSmallWorld(t *testing.T) {
	study := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-scale", "small", "-seed", "1"}, args...), &out); err != nil {
			t.Fatalf("coverage %q: %v", args, err)
		}
		return out.String()
	}
	plain, mapped := study(), study("-map")
	for _, want := range []string{"CONUS hotspots: ", "300 m radius (12b)", "convex hulls (12c)",
		"hulls ≤25 km (12d)", "radial+RSSI  (12e)", "Fig 13 witness distance", "Fig 14 witness RSSI"} {
		if !strings.Contains(plain, want) {
			t.Errorf("output lacks %q:\n%s", want, plain)
		}
	}
	if strings.HasPrefix(plain, "CONUS hotspots: 0 ") {
		t.Fatalf("no CONUS hotspots:\n%s", plain)
	}
	if strings.Contains(plain, "Fig 12a-style density") {
		t.Error("density map printed without -map")
	}
	if !strings.HasPrefix(mapped, plain) || !strings.Contains(mapped[len(plain):], "Fig 12a-style density") {
		t.Errorf("-map did not append the density map to the same study:\n%s", mapped)
	}
}

// TestUsage: a bad flag or an unknown scale is a usage error.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{{"-nosuchflag"}, {"-scale", "huge"}} {
		if err := run(args, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want the usage error", args, err)
		}
	}
}
