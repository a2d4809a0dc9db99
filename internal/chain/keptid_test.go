package chain_test

import (
	"bytes"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/simnet"
)

// checkKeptIDs requires TxnHash(i) to be Hash(Txns[i]) on every block.
func checkKeptIDs(t *testing.T, label string, blocks []*chain.Block) {
	t.Helper()
	n := 0
	for _, b := range blocks {
		for i, tx := range b.Txns {
			if got, want := b.TxnHash(i).String(), chain.Hash(tx); got != want {
				t.Fatalf("%s: block %d txn %d (%s): TxnHash %s, Hash %s", label, b.Height, i, tx.TxnType(), got, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatalf("%s: no transactions checked", label)
	}
}

// sameBlockHashes requires two block sequences to agree height for
// height and hash for hash.
func sameBlockHashes(t *testing.T, label string, got, want []*chain.Block) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Height != want[i].Height || got[i].Hash != want[i].Hash {
			t.Fatalf("%s: block %d = (%d, %s), want (%d, %s)", label, i, got[i].Height, got[i].Hash, want[i].Height, want[i].Hash)
		}
	}
}

// TestKeptTxnIDs: the IDs a chain keeps on its blocks are the IDs of
// their transactions, however the block got there. simnet appends
// through AppendBlockHashed out of a buffer it reuses every day, so a
// kept ID aliasing that buffer would be overwritten by later days.
// Replays through AppendBlock, ReadChain and the binary codec (whose
// blocks keep no IDs and hash on demand) must agree, and so must the
// block hashes.
func TestKeptTxnIDs(t *testing.T) {
	res, err := simnet.Generate(simnet.TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	gen := res.Chain.Blocks()
	checkKeptIDs(t, "simnet", gen)

	replay := chain.NewChain(res.Chain.Genesis)
	for _, b := range gen {
		if _, err := replay.AppendBlock(b.Height, b.Txns); err != nil {
			t.Fatalf("replay height %d: %v", b.Height, err)
		}
	}
	checkKeptIDs(t, "AppendBlock replay", replay.Blocks())
	sameBlockHashes(t, "AppendBlock replay", replay.Blocks(), gen)

	var buf bytes.Buffer
	if _, err := res.Chain.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := chain.ReadChain(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkKeptIDs(t, "JSON round trip", back.Blocks())
	sameBlockHashes(t, "JSON round trip", back.Blocks(), gen)

	decoded := make([]*chain.Block, len(gen))
	var enc []byte
	for i, b := range gen {
		enc = chain.EncodeBlock(enc[:0], b)
		if decoded[i], err = chain.DecodeBlock(enc); err != nil {
			t.Fatalf("decode height %d: %v", b.Height, err)
		}
	}
	checkKeptIDs(t, "binary round trip", decoded)
	sameBlockHashes(t, "binary round trip", decoded, gen)
}

// TestAppendBlockHashedCopiesIDs: the block keeps its own copy of the
// caller's IDs, so a producer may reuse its buffer after the append.
func TestAppendBlockHashedCopiesIDs(t *testing.T) {
	txns := []chain.Txn{
		&chain.AddGateway{Gateway: "hs1", Owner: "w"},
		&chain.AddGateway{Gateway: "hs2", Owner: "w"},
	}
	ids := []chain.TxnID{chain.IDOf(txns[0]), chain.IDOf(txns[1])}
	c := chain.NewChain(chain.DefaultGenesis)
	b, err := c.AppendBlockHashed(1, txns, ids)
	if err != nil {
		t.Fatal(err)
	}
	want := b.Hash
	for i := range ids {
		ids[i] = chain.TxnID{}
	}
	checkKeptIDs(t, "after overwrite", []*chain.Block{b, c.BlockAt(1)})
	if b.Hash != want {
		t.Fatalf("block hash changed from %s to %s", want, b.Hash)
	}
	if _, err := c.AppendBlockHashed(2, txns[:1], ids); err == nil {
		t.Fatal("AppendBlockHashed accepted 2 IDs for 1 transaction")
	}
}
