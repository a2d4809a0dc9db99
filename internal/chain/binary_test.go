package chain

import (
	"testing"
	"time"

	"peoplesnet/internal/geo"
	"peoplesnet/internal/h3lite"
	"peoplesnet/internal/wire"
)

// binaryTestBlocks covers every transaction variant, empty and
// populated nested slices, zero and negative amounts, and non-ASCII
// strings.
func binaryTestBlocks(t testing.TB) []*Block {
	t.Helper()
	cell := h3lite.FromLatLon(geo.Point{Lat: 32.7, Lon: -117.2}, 8)
	blocks := []*Block{
		{Height: 0, Timestamp: DefaultGenesis, Txns: nil},
		{
			Height:    7,
			Timestamp: DefaultGenesis.Add(7 * time.Minute),
			PrevHash:  "aa11",
			Txns: []Txn{
				&AddGateway{Gateway: "hs-α", Owner: "own-1", Location: cell, Maker: "mk"},
				&AddGateway{Gateway: "hs-2", Owner: "own-1"},
				&AssertLocation{Gateway: "hs-α", Owner: "own-1", Location: cell, Nonce: 1},
				&TransferHotspot{Gateway: "hs-2", Seller: "own-1", Buyer: "own-2", AmountBones: 0},
				&PoCRequest{Challenger: "hs-α", SecretHash: "s3cr3t"},
				&PoCReceipt{
					Challenger: "hs-α", Challengee: "hs-2", ChallengeeLocation: cell,
					Witnesses: []WitnessReport{
						{Witness: "hs-3", RSSIdBm: -108.5, SNRdB: 2.25, Channel: 3, Location: cell, Valid: true},
						{Witness: "hs-4", RSSIdBm: 1_041_313_293, Valid: false, Reason: "too_far"},
					},
				},
				&PoCReceipt{Challenger: "hs-2", Challengee: "hs-α"},
			},
		},
		{
			Height:    9001,
			Timestamp: DefaultGenesis.Add(100 * 24 * time.Hour),
			PrevHash:  "bb22",
			Txns: []Txn{
				&StateChannelOpen{ID: "sc-1", Owner: "rt-1", OUI: 3, AmountDC: 1000, ExpireWithin: 30},
				&StateChannelClose{ID: "sc-1", Owner: "rt-1", Summaries: []SCSummary{
					{Hotspot: "hs-α", Packets: 12, DC: 24},
					{Hotspot: "hs-2", Packets: 0, DC: 0},
				}},
				&Payment{Payer: "own-1", Payee: "own-2", AmountBones: 5},
				&TokenBurn{Payer: "own-2", Destination: "rt-1", AmountBones: 123456789},
				&OUIRegistration{OUI: 4, Owner: "rt-2", Filters: []string{"eui-1", "eui-2"}},
				&OUIRegistration{OUI: 5, Owner: "rt-3"},
				&Rewards{Epoch: 12, Entries: []RewardEntry{
					{Account: "own-1", Gateway: "hs-α", AmountBones: 99, Kind: RewardWitness},
					{Account: "own-2", AmountBones: 1, Kind: RewardConsensus},
				}},
				&Rewards{Epoch: 13},
				&ConsensusGroup{Epoch: 12, Members: []string{"v-1", "v-2"}},
				&RoutingUpdate{OUI: 4, Owner: "rt-2", Filters: []string{"eui-9"}},
				&StakeValidator{Owner: "own-2", Validator: "v-3"},
				&DCCoinbase{Payee: "rt-1", AmountDC: 1_000_000},
				&SecurityCoinbase{Payee: "own-1", AmountBones: -3},
			},
		},
	}
	for _, b := range blocks {
		b.Hash = b.computeHash()
	}
	return blocks
}

func TestBlockBinaryRoundTrip(t *testing.T) {
	for _, b := range binaryTestBlocks(t) {
		enc := EncodeBlock(nil, b)
		got, err := DecodeBlock(enc)
		if err != nil {
			t.Fatalf("DecodeBlock(block %d): %v", b.Height, err)
		}
		if got.Height != b.Height || got.PrevHash != b.PrevHash || got.Hash != b.Hash {
			t.Errorf("block %d header mismatch: got %+v", b.Height, got)
		}
		if !got.Timestamp.Equal(b.Timestamp) {
			t.Errorf("block %d timestamp %v, want %v", b.Height, got.Timestamp, b.Timestamp)
		}
		if len(got.Txns) != len(b.Txns) {
			t.Fatalf("block %d: %d txns, want %d", b.Height, len(got.Txns), len(b.Txns))
		}
		for i := range b.Txns {
			// Nil and empty slices are interchangeable on the wire;
			// compare JSON-marshaled form via the content hash.
			if Hash(got.Txns[i]) != Hash(b.Txns[i]) {
				t.Errorf("block %d txn %d: decode differs\n got %#v\nwant %#v",
					b.Height, i, got.Txns[i], b.Txns[i])
			}
			if got.Txns[i].TxnType() != b.Txns[i].TxnType() {
				t.Errorf("block %d txn %d: type %v, want %v",
					b.Height, i, got.Txns[i].TxnType(), b.Txns[i].TxnType())
			}
		}
		// The recomputed hash must match, so a decoded block chains
		// identically to the original.
		if got.computeHash() != b.computeHash() {
			t.Errorf("block %d: recomputed hash differs after round trip", b.Height)
		}
	}
}

func TestDecodeBlockRejectsCorruption(t *testing.T) {
	b := binaryTestBlocks(t)[1]
	enc := EncodeBlock(nil, b)

	if _, err := DecodeBlock(nil); err == nil {
		t.Error("empty input decoded")
	}
	if _, err := DecodeBlock([]byte{99}); err == nil {
		t.Error("unknown version decoded")
	}
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeBlock(enc[:cut]); err == nil {
			t.Errorf("truncation at %d decoded", cut)
		}
	}
	if _, err := DecodeBlock(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing garbage decoded")
	}
}

func TestWireCountBounds(t *testing.T) {
	// A count claiming more elements than bytes remain must error
	// before allocation, not build a huge slice.
	var w wire.Writer
	w.Uvarint(1 << 40)
	r := wire.NewReader(w.Buf)
	if n := r.Count(1); r.Err() == nil || n != 0 {
		t.Errorf("count = %d, err = %v; want 0 and error", n, r.Err())
	}
}

// FuzzDecodeBlock asserts the decoder never panics on arbitrary
// bytes: corrupted on-disk data must come back as an error. Valid
// encodings that decode must re-encode to a decodable block.
func FuzzDecodeBlock(f *testing.F) {
	for _, b := range binaryTestBlocks(f) {
		f.Add(EncodeBlock(nil, b))
	}
	f.Add([]byte{})
	f.Add([]byte{blockCodecVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
		if err != nil {
			return
		}
		// A successfully decoded block must survive a second round
		// trip (the decoder may accept non-minimal varints, so the
		// bytes can differ; the value cannot).
		enc := EncodeBlock(nil, b)
		b2, err := DecodeBlock(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded block failed: %v", err)
		}
		if b2.Height != b.Height || len(b2.Txns) != len(b.Txns) {
			t.Fatalf("round trip changed block: %d/%d txns, heights %d/%d",
				len(b.Txns), len(b2.Txns), b.Height, b2.Height)
		}
		if !b2.Timestamp.Equal(b.Timestamp) || b2.PrevHash != b.PrevHash || b2.Hash != b.Hash {
			t.Fatalf("round trip changed header: %+v vs %+v", b2, b)
		}
		for i := range b.Txns {
			if Hash(b2.Txns[i]) != Hash(b.Txns[i]) {
				t.Fatalf("round trip changed txn %d content: %#v vs %#v", i, b2.Txns[i], b.Txns[i])
			}
		}
		if b2.computeHash() != b.computeHash() {
			t.Fatal("round trip changed the recomputable block hash")
		}
	})
}
