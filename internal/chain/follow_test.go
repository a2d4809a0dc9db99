package chain

import (
	"sync"
	"testing"
	"time"
)

func TestBlocksReturnsCopy(t *testing.T) {
	c := NewChain(DefaultGenesis)
	if _, err := c.AppendBlock(1, []Txn{&AddGateway{Gateway: "hs1", Owner: "w"}}); err != nil {
		t.Fatal(err)
	}
	got := c.Blocks()
	got[0] = nil // must not corrupt the chain's own view
	if c.Blocks()[0] == nil {
		t.Fatal("Blocks aliases the internal slice")
	}
	if _, err := c.AppendBlock(2, []Txn{&AddGateway{Gateway: "hs2", Owner: "w"}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatal("earlier snapshot grew with the chain")
	}
}

func TestBlocksFrom(t *testing.T) {
	c := NewChain(DefaultGenesis)
	for _, h := range []int64{1, 5, 9, 20} {
		if _, err := c.AppendBlock(h, []Txn{&AddGateway{Gateway: "hs" + string(rune('a'+h)), Owner: "w"}}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		after int64
		want  []int64
	}{
		{-1, []int64{1, 5, 9, 20}},
		{0, []int64{1, 5, 9, 20}},
		{1, []int64{5, 9, 20}},
		{6, []int64{9, 20}}, // between sparse heights
		{20, nil},
		{99, nil},
	}
	for _, tc := range cases {
		got := c.BlocksFrom(tc.after)
		if len(got) != len(tc.want) {
			t.Fatalf("BlocksFrom(%d) = %d blocks, want %d", tc.after, len(got), len(tc.want))
		}
		for i, b := range got {
			if b.Height != tc.want[i] {
				t.Fatalf("BlocksFrom(%d)[%d] = height %d, want %d", tc.after, i, b.Height, tc.want[i])
			}
		}
	}
}

// TestTailReplaysThenWaits: a tail replays the stored suffix past its
// start height, then blocks until the producer appends more.
func TestTailReplaysThenWaits(t *testing.T) {
	c := NewChain(DefaultGenesis)
	for _, h := range []int64{1, 5} {
		if _, err := c.AppendBlock(h, []Txn{&AddGateway{Gateway: "hs" + string(rune('a'+h)), Owner: "w"}}); err != nil {
			t.Fatal(err)
		}
	}
	tail := c.Follow(1)
	defer tail.Close()
	if b, ok := tail.Next(); !ok || b.Height != 5 {
		t.Fatalf("replay = %v, %v; want height 5", b, ok)
	}
	got := make(chan int64)
	go func() {
		b, ok := tail.Next()
		if !ok {
			got <- -1
			return
		}
		got <- b.Height
	}()
	select {
	case h := <-got:
		t.Fatalf("Next returned %d before anything was appended", h)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := c.AppendBlock(9, []Txn{&AddGateway{Gateway: "hs9", Owner: "w"}}); err != nil {
		t.Fatal(err)
	}
	if h := <-got; h != 9 {
		t.Fatalf("Next after append = %d, want 9", h)
	}
}

// TestTailCloseDrainsSuffix: Close is lossless — blocks appended before
// it are still delivered, then Next reports false, however many the
// producer appends after it; Close unblocks a waiting Next and is
// idempotent.
func TestTailCloseDrainsSuffix(t *testing.T) {
	c := NewChain(DefaultGenesis)
	tail := c.Follow(-1)
	done := make(chan bool)
	go func() {
		_, ok := tail.Next()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let Next block; the outcome is the same if it has not
	tail.Close()
	if ok := <-done; ok {
		t.Fatal("Next on an empty closed tail returned a block")
	}

	tail = c.Follow(-1)
	for _, h := range []int64{1, 2, 3} {
		if _, err := c.AppendBlock(h, []Txn{&AddGateway{Gateway: "hs" + string(rune('a'+h)), Owner: "w"}}); err != nil {
			t.Fatal(err)
		}
	}
	tail.Close()
	if _, err := c.AppendBlock(4, []Txn{&AddGateway{Gateway: "hse", Owner: "w"}}); err != nil {
		t.Fatal(err)
	}
	tail.Close() // a second close neither panics nor extends the drain
	for want := int64(1); want <= 3; want++ {
		if b, ok := tail.Next(); !ok || b.Height != want {
			t.Fatalf("drain after close = %v, %v; want height %d", b, ok, want)
		}
	}
	if _, ok := tail.Next(); ok {
		t.Fatal("Next after draining a closed tail returned a block")
	}
}

// TestConcurrentProducerReaders exercises the one-producer /
// many-readers contract under the race detector.
func TestConcurrentProducerReaders(t *testing.T) {
	c := NewChain(DefaultGenesis)
	const blocks = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for h := int64(1); h <= blocks; h++ {
			gw := "hs" + string(rune('a'+h%26)) + string(rune('a'+(h/26)%26)) + string(rune('a'+(h/676)%26))
			if _, err := c.AppendBlock(h, []Txn{&AddGateway{Gateway: gw, Owner: "w"}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	tail := c.Follow(-1)
	defer tail.Close()
	wg.Add(3)
	go func() {
		defer wg.Done()
		for got := int64(1); got <= blocks; got++ {
			if b, ok := tail.Next(); !ok || b.Height != got {
				t.Errorf("tail = %v, %v; want height %d", b, ok, got)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.TxnMix()
			c.Scan(func(int64, Txn) bool { return true })
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.Height()
			c.Blocks()
		}
	}()
	wg.Wait()
	if c.TxnCount() != blocks {
		t.Fatalf("txn count = %d", c.TxnCount())
	}
}
