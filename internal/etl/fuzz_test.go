package etl

import (
	"testing"

	"peoplesnet/internal/chain"
)

// FuzzPostingRoundTrip drives the compressed posting codec from both
// sides: a sorted position sequence derived from the input must
// survive encode → iterate bit-exactly, and arbitrary bytes posing as
// an encoded list must never panic — iteration terminates and
// validate rejects, matching the sidecar trust boundary.
func FuzzPostingRoundTrip(f *testing.F) {
	f.Add([]byte{}, true)
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3}, true)
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3}, false)
	f.Add([]byte{5, 0, 0, 7, 255, 255, 9, 9}, true)
	f.Fuzz(func(t *testing.T, data []byte, typed bool) {
		// Derive a strictly increasing (blk, txn) sequence: even first
		// bytes advance within the block, odd ones jump blocks.
		var want []pos
		blk, txn := int32(0), int32(-1)
		for i := 0; i+1 < len(data) && len(want) < 1<<12; i += 2 {
			a, b := data[i], data[i+1]
			if a%2 == 0 {
				txn += int32(b) + 1
			} else {
				blk += int32(a)
				txn = int32(b)
			}
			var tt chain.TxnType
			if typed {
				tt = chain.TxnType(b % 8)
			}
			want = append(want, pos{blk: blk, txn: txn, tt: tt})
		}
		p := &postings{typed: typed}
		for _, q := range want {
			p.add(q.blk, q.txn, q.tt)
		}
		if p.n != len(want) {
			t.Fatalf("encoder counted %d postings, added %d", p.n, len(want))
		}
		it := p.iter(0)
		for i, q := range want {
			got, ok := it.next()
			if !ok {
				t.Fatalf("iterator ended at posting %d of %d", i, len(want))
			}
			if got != q {
				t.Fatalf("posting %d decoded as (%d,%d,%v), want (%d,%d,%v)",
					i, got.blk, got.txn, got.tt, q.blk, q.txn, q.tt)
			}
		}
		if got, ok := it.next(); ok {
			t.Fatalf("iterator produced posting (%d,%d) past the %d encoded", got.blk, got.txn, len(want))
		}

		// Hostile side: the fuzz input itself as a list buffer. Every
		// decoded posting consumes at least two bytes, so the iterator
		// is bounded; validate must reject without panicking (no blocks
		// means any entry is out of bounds).
		hostile := &postings{n: len(data), typed: typed, buf: data}
		hit := hostile.iter(chain.TxnPayment)
		for i := 0; ; i++ {
			if _, ok := hit.next(); !ok {
				break
			}
			if i > len(data) {
				t.Fatal("hostile iterator yielded more postings than input bytes")
			}
		}
		if err := hostile.validate(nil, chain.TxnPayment); err == nil && len(data) > 0 {
			t.Fatal("validate accepted a non-empty list against zero blocks")
		}
	})
}
