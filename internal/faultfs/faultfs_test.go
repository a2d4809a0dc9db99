package faultfs_test

import (
	"bytes"
	"errors"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"peoplesnet/internal/etl"
	"peoplesnet/internal/faultfs"
)

// mustOps requires the FS's mutating-op count to be want.
func mustOps(t *testing.T, f *faultfs.FS, want int) {
	t.Helper()
	if got := f.Ops(); got != want {
		t.Fatalf("ops = %d, want %d", got, want)
	}
}

func injected(err error) bool { return errors.Is(err, faultfs.ErrInjected) }

// payload is an n-byte patterned buffer.
func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + 1)
	}
	return p
}

// TestFailAtOpCountsMutatingOps: only create, append-open, write,
// sync, rename and remove count; reads, directory calls and Close do
// not. The k-th counted op fails, and without Crash the next succeeds.
func TestFailAtOpCountsMutatingOps(t *testing.T) {
	dir := t.TempDir()
	f := faultfs.New(etl.OSFS{}, faultfs.Config{FailAtOp: 5})
	name := filepath.Join(dir, "a")

	if err := f.MkdirAll(filepath.Join(dir, "sub")); err != nil {
		t.Fatal(err)
	}
	mustOps(t, f, 0)
	w, err := f.Create(name) // 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("abc")); err != nil { // 2
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil { // 3
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile(name); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadDir(dir); err != nil {
		t.Fatal(err)
	}
	mustOps(t, f, 3)

	a, err := f.Append(name) // 4
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Write([]byte("def")); !injected(err) { // 5
		t.Fatalf("op 5: err %v, want ErrInjected", err)
	}
	if _, err := a.Write([]byte("ghi")); err != nil { // 6
		t.Fatalf("op 6 without Crash: %v", err)
	}
	if err := f.Rename(name, name+".b"); err != nil { // 7
		t.Fatal(err)
	}
	if err := f.Remove(name + ".b"); err != nil { // 8
		t.Fatal(err)
	}
	mustOps(t, f, 8)
}

// TestCrashFailsEveryLaterOp: with Crash set, the process is dead from
// the failing op on: every later mutating op fails, reads still work.
func TestCrashFailsEveryLaterOp(t *testing.T) {
	dir := t.TempDir()
	f := faultfs.New(etl.OSFS{}, faultfs.Config{FailAtOp: 2, Crash: true})
	name := filepath.Join(dir, "a")
	w, err := f.Create(name) // 1
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Write([]byte("abc")); !injected(err) { // 2
		t.Fatalf("op 2: err %v, want ErrInjected", err)
	}
	later := map[string]func() error{
		"write": func() error { _, err := w.Write([]byte("x")); return err },
		"sync":  w.Sync,
		"create": func() error {
			_, err := f.Create(filepath.Join(dir, "b"))
			return err
		},
		"append": func() error {
			_, err := f.Append(name)
			return err
		},
		"rename": func() error { return f.Rename(name, name+".b") },
		"remove": func() error { return f.Remove(name) },
	}
	for op, fn := range later {
		if err := fn(); !injected(err) {
			t.Errorf("%s after the crash: err %v, want ErrInjected", op, err)
		}
	}
	if data, err := f.ReadFile(name); err != nil || len(data) != 0 {
		t.Fatalf("read after the crash: %q, %v; want an empty file", data, err)
	}
	mustOps(t, f, 2+len(later))
}

// TestHealRearms: Heal brings a crashed FS back with the plan disarmed;
// FailAt arms the k-th op from the current count, and Crash carries
// over to the re-armed plan.
func TestHealRearms(t *testing.T) {
	dir := t.TempDir()
	f := faultfs.New(etl.OSFS{}, faultfs.Config{FailAtOp: 1, Crash: true})
	name := filepath.Join(dir, "a")
	if _, err := f.Create(name); !injected(err) {
		t.Fatalf("op 1: err %v, want ErrInjected", err)
	}
	if _, err := f.Create(name); !injected(err) {
		t.Fatalf("op 2 after the crash: err %v, want ErrInjected", err)
	}

	f.Heal()
	w, err := f.Create(name)
	if err != nil {
		t.Fatalf("create after Heal: %v", err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := w.Write([]byte("x")); err != nil {
			t.Fatalf("healed write %d: %v", i, err)
		}
	}

	f.FailAt(2)
	before := f.Ops()
	if _, err := w.Write([]byte("y")); err != nil {
		t.Fatalf("first op after FailAt(2): %v", err)
	}
	if _, err := w.Write([]byte("z")); !injected(err) {
		t.Fatalf("second op after FailAt(2): err %v, want ErrInjected", err)
	}
	if err := w.Sync(); !injected(err) {
		t.Fatalf("op after the re-armed crash: err %v, want ErrInjected", err)
	}
	mustOps(t, f, before+3)

	f.Heal()
	if err := w.Sync(); err != nil {
		t.Fatalf("sync after the second Heal: %v", err)
	}
	if data, err := os.ReadFile(name); err != nil || string(data) != "xxxy" {
		t.Fatalf("file holds %q, %v; want %q", data, err, "xxxy")
	}
}

// tornWrite fails one write of buf under a TornWrite plan with the
// given seed and returns what reached the file.
func tornWrite(t *testing.T, seed int64, buf []byte) []byte {
	t.Helper()
	name := filepath.Join(t.TempDir(), "torn")
	f := faultfs.New(etl.OSFS{}, faultfs.Config{Seed: seed, FailAtOp: 2, Crash: true, TornWrite: true})
	w, err := f.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(buf); !injected(err) {
		t.Fatalf("seed %d: torn write err %v, want ErrInjected", seed, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTornWritePersistsSeededPrefix: a torn write leaves a strict
// prefix of its buffer on disk, and the same seed tears at the same
// length.
func TestTornWritePersistsSeededPrefix(t *testing.T) {
	buf := payload(4096)
	lengths := map[int]bool{}
	for seed := int64(1); seed <= 5; seed++ {
		got := tornWrite(t, seed, buf)
		if len(got) >= len(buf) || !bytes.Equal(got, buf[:len(got)]) {
			t.Fatalf("seed %d: persisted %d bytes that are not a strict prefix of the %d-byte write", seed, len(got), len(buf))
		}
		if again := tornWrite(t, seed, buf); !bytes.Equal(again, got) {
			t.Fatalf("seed %d: tore at %d bytes, then at %d", seed, len(got), len(again))
		}
		lengths[len(got)] = true
	}
	if len(lengths) < 2 {
		t.Fatalf("five seeds tore at the same length %v", lengths)
	}
	// Without TornWrite a failing write persists nothing.
	name := filepath.Join(t.TempDir(), "clean")
	f := faultfs.New(etl.OSFS{}, faultfs.Config{Seed: 1, FailAtOp: 2})
	w, err := f.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(buf); !injected(err) {
		t.Fatalf("err %v, want ErrInjected", err)
	}
	w.Close()
	if data, _ := os.ReadFile(name); len(data) != 0 {
		t.Fatalf("untorn failing write persisted %d bytes", len(data))
	}
}

// TestCorruptFileFlipsOneBit: CorruptFile changes exactly one bit, at
// the offset it reports, without counting as a mutating op; an empty
// file cannot be corrupted.
func TestCorruptFileFlipsOneBit(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "seg")
	orig := payload(1000)
	if err := os.WriteFile(name, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	f := faultfs.New(etl.OSFS{}, faultfs.Config{Seed: 42})
	for round := 0; round < 3; round++ {
		before, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		off, err := f.CorruptFile(name)
		if err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Fatalf("round %d: length %d, want %d", round, len(after), len(before))
		}
		flipped := 0
		for i := range after {
			if d := bits.OnesCount8(after[i] ^ before[i]); d > 0 {
				if i != off {
					t.Fatalf("round %d: byte %d changed, reported offset %d", round, i, off)
				}
				flipped += d
			}
		}
		if flipped != 1 {
			t.Fatalf("round %d: %d bits flipped, want 1", round, flipped)
		}
	}
	mustOps(t, f, 0)

	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CorruptFile(empty); err == nil {
		t.Fatal("corrupted an empty file")
	}
}
