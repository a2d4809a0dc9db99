package chainkey

import (
	"strings"
	"testing"

	"peoplesnet/internal/stats"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(stats.NewRNG(42))
	b := Generate(stats.NewRNG(42))
	if a.Address() != b.Address() {
		t.Fatal("same seed produced different keys")
	}
	c := Generate(stats.NewRNG(43))
	if a.Address() == c.Address() {
		t.Fatal("different seeds produced same key")
	}
}

func TestSignVerify(t *testing.T) {
	k := Generate(stats.NewRNG(1))
	msg := []byte("state_channel_close payload")
	sig := k.Sign(msg)
	if !Verify(k.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(k.Public, []byte("tampered"), sig) {
		t.Fatal("tampered message accepted")
	}
	other := Generate(stats.NewRNG(2))
	if Verify(other.Public, msg, sig) {
		t.Fatal("wrong key accepted")
	}
}

func TestVerifyShortKey(t *testing.T) {
	if Verify([]byte{1, 2, 3}, []byte("m"), make([]byte, 64)) {
		t.Fatal("short public key accepted")
	}
}

func TestAddressFormat(t *testing.T) {
	k := Generate(stats.NewRNG(4))
	addr := k.Address()
	if !strings.HasPrefix(addr, AddressPrefix) {
		t.Fatalf("address %q lacks prefix %q", addr, AddressPrefix)
	}
	if raw, err := addrEncoding.DecodeString(addr[len(AddressPrefix):]); err != nil || len(raw) != 20 {
		t.Fatalf("address %q body decodes to %d bytes, %v", addr, len(raw), err)
	}
	if AddressOf(k.Public) != addr {
		t.Fatal("AddressOf disagrees with Address")
	}
}

func TestAddressUniqueness(t *testing.T) {
	rng := stats.NewRNG(5)
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		addr := Generate(rng).Address()
		if seen[addr] {
			t.Fatalf("duplicate address %q", addr)
		}
		seen[addr] = true
	}
}
