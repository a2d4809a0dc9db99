package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShardsSameChain: the -shards help text promises that any worker
// count yields the same chain. One and two workers on seed 1 write
// byte-identical chain files and print the same counts.
func TestShardsSameChain(t *testing.T) {
	dir := t.TempDir()
	gen := func(shards string) (stdout string, chain []byte) {
		t.Helper()
		path := filepath.Join(dir, "chain-"+shards+".jsonl")
		var out bytes.Buffer
		if err := run([]string{"-seed", "1", "-shards", shards, "-report=false", "-out", path}, &out); err != nil {
			t.Fatalf("heliumsim -shards %s: %v", shards, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(out.String(), path, "chain.jsonl"), data
	}
	out1, chain1 := gen("1")
	out2, chain2 := gen("2")
	if !strings.HasPrefix(out1, "generated ") || !strings.Contains(out1, "wrote chain.jsonl (") {
		t.Fatalf("unexpected output:\n%s", out1)
	}
	if out1 != out2 {
		t.Fatalf("-shards 1 printed\n%s-shards 2 printed\n%s", out1, out2)
	}
	if len(chain1) == 0 || !bytes.Equal(chain1, chain2) {
		t.Fatalf("chain files differ: %d bytes with -shards 1, %d with -shards 2", len(chain1), len(chain2))
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
