package chain

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"peoplesnet/internal/wire"
)

// hashFresh is Hash's body before its encode buffer was pooled: a
// fresh 256-byte buffer grown to the encoding's size on every call.
// The pooled Hash must produce the same IDs bit for bit.
func hashFresh(t Txn) string {
	w := wire.Writer{Buf: make([]byte, 0, 256)}
	w.U8(uint8(t.TxnType()))
	encodeTxn(&w, t)
	sum := sha256.Sum256(w.Buf)
	return hex.EncodeToString(sum[:16])
}

// bigRewards is one epoch's rewards transaction paying n accounts,
// the largest transaction a simulated chain carries.
func bigRewards(n int) *Rewards {
	r := &Rewards{Epoch: 42}
	for i := 0; i < n; i++ {
		r.Entries = append(r.Entries, RewardEntry{
			Account:     fmt.Sprintf("owner-%05d", i%700),
			Gateway:     fmt.Sprintf("hotspot-%05d", i),
			AmountBones: int64(i) * 1_000_003,
			Kind:        RewardKind(1 + i%5),
		})
	}
	return r
}

func TestHashMatchesFreshBuffer(t *testing.T) {
	var txns []Txn
	for _, b := range binaryTestBlocks(t) {
		txns = append(txns, b.Txns...)
	}
	// Interleave a large rewards transaction with small ones, so a
	// pooled buffer that grew large is reused for short encodings.
	txns = append(txns, bigRewards(3000), &Payment{Payer: "a", Payee: "b", AmountBones: 1}, bigRewards(10))
	seen := map[TxnType]bool{}
	for round := 0; round < 2; round++ {
		for i, tx := range txns {
			seen[tx.TxnType()] = true
			if got, want := Hash(tx), hashFresh(tx); got != want {
				t.Errorf("round %d txn %d (%s): Hash %s, want %s", round, i, tx.TxnType(), got, want)
			}
		}
	}
	for tt := TxnAddGateway; tt <= TxnSecurityCoinbase; tt++ {
		if !seen[tt] {
			t.Errorf("no %s transaction in the corpus", tt)
		}
	}
}

func TestHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled buffers at random; the bound holds in a plain build")
	}
	r := bigRewards(3000)
	Hash(r) // warm the pool with a buffer of the encoding's size
	if n := testing.AllocsPerRun(50, func() { Hash(r) }); n > 2 {
		t.Errorf("Hash of a 3000-entry rewards transaction: %.1f allocs, want <= 2", n)
	}
}

func BenchmarkHashRewards(b *testing.B) {
	r := bigRewards(3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hash(r)
	}
}
