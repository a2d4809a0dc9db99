package statechannel

import (
	"errors"
	"testing"
	"testing/quick"

	"peoplesnet/internal/chain"
)

func TestDCForBytes(t *testing.T) {
	cases := []struct {
		bytes int
		want  int64
	}{
		{0, 1}, {-5, 1}, {1, 1}, {24, 1}, {25, 2}, {48, 2}, {49, 3}, {240, 10},
	}
	for _, c := range cases {
		if got := DCForBytes(c.bytes); got != c.want {
			t.Errorf("DCForBytes(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestOpenAndBuy(t *testing.T) {
	ch := Open("router", 1, 100)
	if ch.ID != chain.SCID("router", 1) || ch.StakeDC != 100 {
		t.Fatalf("channel = %+v", ch)
	}
	o := Offer{Hotspot: "hs1", PacketID: "pkt-1", Bytes: 20}
	p, err := ch.Buy(o)
	if err != nil {
		t.Fatal(err)
	}
	if p.DC != 1 || p.ChannelID != ch.ID {
		t.Fatalf("purchase = %+v", p)
	}
	if ch.spentDC != 1 {
		t.Fatalf("spent = %d", ch.spentDC)
	}
}

func TestDuplicateCopyPolicy(t *testing.T) {
	// Every copy of a packet is bought, one per relaying hotspot (§5.1).
	ch := Open("router", 2, 100)
	for _, hs := range []string{"hs1", "hs2", "hs3"} {
		if _, err := ch.Buy(Offer{Hotspot: hs, PacketID: "dup", Bytes: 10}); err != nil {
			t.Fatalf("copy from %s: %v", hs, err)
		}
	}
	if ch.spentDC != 3 {
		t.Fatalf("spent = %d, want 3", ch.spentDC)
	}
}

func TestStakeExhaustion(t *testing.T) {
	ch := Open("router", 3, 2)
	if _, err := ch.Buy(Offer{Hotspot: "a", PacketID: "1", Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Buy(Offer{Hotspot: "a", PacketID: "2", Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Buy(Offer{Hotspot: "a", PacketID: "3", Bytes: 10}); !errors.Is(err, ErrChannelExhausted) {
		t.Fatalf("over-stake buy: %v", err)
	}
}

// Property: DCForBytes is monotone and 1 DC covers exactly 24 bytes.
func TestDCForBytesProperty(t *testing.T) {
	err := quick.Check(func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw%4096), int(bRaw%4096)
		da, db := DCForBytes(a), DCForBytes(b)
		if a <= b && da > db {
			return false // monotone
		}
		if da < 1 {
			return false // minimum 1
		}
		// Exact pricing: ceil(n/24) for positive n.
		if a > 0 && da != int64((a+23)/24) {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
