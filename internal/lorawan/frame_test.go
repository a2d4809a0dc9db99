package lorawan

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"
	"testing"
	"testing/quick"
)

var testKey = NewMICKey([]byte("0123456789abcdef"))

func TestJoinRequestRoundTrip(t *testing.T) {
	f := &Frame{
		MType:    JoinRequestType,
		AppEUI:   EUIFromUint64(0x70B3D57ED0000001),
		DevEUI:   EUIFromUint64(0x70B3D57ED0001234),
		DevNonce: 0xBEEF,
	}
	wire := f.Marshal(testKey)
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.MType != JoinRequestType || got.AppEUI != f.AppEUI || got.DevEUI != f.DevEUI || got.DevNonce != 0xBEEF {
		t.Fatalf("round trip = %+v", got)
	}
	if err := got.Verify(testKey); err != nil {
		t.Fatal(err)
	}
}

func TestJoinAcceptRoundTrip(t *testing.T) {
	f := &Frame{MType: JoinAcceptType, JoinNonce: 777, DevAddr: 0xDEADBEEF}
	got, err := Parse(f.Marshal(testKey))
	if err != nil {
		t.Fatal(err)
	}
	if got.JoinNonce != 777 || got.DevAddr != 0xDEADBEEF {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	f := &Frame{
		MType:   ConfirmedDataUp,
		DevAddr: 0x01020304,
		FCtrl:   FCtrl{ADR: true},
		FCnt:    42,
		FPort:   2,
		Payload: []byte{0xCA, 0xFE, 0x00, 0x01},
	}
	wire := f.Marshal(testKey)
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.MType != ConfirmedDataUp || got.DevAddr != f.DevAddr || got.FCnt != 42 ||
		got.FPort != 2 || !bytes.Equal(got.Payload, f.Payload) || !got.FCtrl.ADR || got.FCtrl.ACK {
		t.Fatalf("round trip = %+v", got)
	}
	if err := got.Verify(testKey); err != nil {
		t.Fatal(err)
	}
}

func TestMICDetectsTampering(t *testing.T) {
	f := &Frame{MType: UnconfirmedDataUp, DevAddr: 1, FCnt: 1, FPort: 1, Payload: []byte{1, 2, 3}}
	wire := f.Marshal(testKey)
	wire[10] ^= 0xFF // flip a payload byte
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(testKey); err == nil {
		t.Fatal("tampered frame verified")
	}
	// Wrong key also fails.
	clean, _ := Parse(f.Marshal(testKey))
	if err := clean.Verify(NewMICKey([]byte("another-key-1234"))); err == nil {
		t.Fatal("wrong key verified")
	}
}

func TestParseShortFrames(t *testing.T) {
	for _, wire := range [][]byte{nil, {1}, {1, 2, 3, 4}, make([]byte, 8)} {
		if _, err := Parse(wire); err == nil {
			t.Fatalf("short frame %v accepted", wire)
		}
	}
	// A join request truncated below its fixed size.
	f := &Frame{MType: JoinRequestType}
	wire := f.Marshal(testKey)
	if _, err := Parse(wire[:12]); err == nil {
		t.Fatal("truncated join request accepted")
	}
}

func TestACKFlag(t *testing.T) {
	f := &Frame{MType: UnconfirmedDataDown, DevAddr: 9, FCtrl: FCtrl{ACK: true}}
	got, _ := Parse(f.Marshal(testKey))
	if !got.FCtrl.ACK {
		t.Fatal("ACK flag lost")
	}
}

func TestSessionKeyDerivation(t *testing.T) {
	var appKey AppKey
	copy(appKey[:], "secret-app-key!!")
	a := DeriveSessionKeys(appKey, 1, 100)
	b := DeriveSessionKeys(appKey, 1, 100)
	if a != b {
		t.Fatal("derivation not deterministic")
	}
	c := DeriveSessionKeys(appKey, 2, 100)
	if a == c {
		t.Fatal("different nonce produced same keys")
	}
	if a.NwkSKey == a.AppSKey {
		t.Fatal("network and app keys identical")
	}
}

func TestMTypeHelpers(t *testing.T) {
	if !ConfirmedDataUp.Uplink() || ConfirmedDataDown.Uplink() {
		t.Fatal("Uplink classification wrong")
	}
	if !ConfirmedDataUp.Confirmed() || UnconfirmedDataUp.Confirmed() {
		t.Fatal("Confirmed classification wrong")
	}
	if JoinRequestType.String() != "JoinRequest" || MType(6).String() != "MType(6)" {
		t.Fatal("String() wrong")
	}
}

// Property: any data frame round-trips exactly.
func TestDataFrameRoundTripProperty(t *testing.T) {
	err := quick.Check(func(addr uint32, fcnt uint16, port uint8, payload []byte, adr, ack bool) bool {
		if len(payload) > 242 { // LoRaWAN max payload
			payload = payload[:242]
		}
		f := &Frame{
			MType:   UnconfirmedDataUp,
			DevAddr: DevAddr(addr),
			FCtrl:   FCtrl{ADR: adr, ACK: ack},
			FCnt:    fcnt,
			FPort:   port,
			Payload: payload,
		}
		got, err := Parse(f.Marshal(testKey))
		if err != nil {
			return false
		}
		return got.DevAddr == f.DevAddr && got.FCnt == fcnt && got.FPort == port &&
			bytes.Equal(got.Payload, payload) && got.FCtrl == f.FCtrl &&
			got.Verify(testKey) == nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEUIString(t *testing.T) {
	e := EUIFromUint64(0x1234)
	if e.String() != "0000000000001234" {
		t.Fatal(e.String())
	}
	if DevAddr(0xAB).String() != "000000ab" {
		t.Fatal(DevAddr(0xAB).String())
	}
}

func TestRXWindowConstants(t *testing.T) {
	if RX1DelaySec != 1 || RX2DelaySec != 2 {
		t.Fatal("receive window constants must match LoRaWAN class A")
	}
}

// TestMICKeyMatchesHMAC checks a reused MICKey against a fresh
// crypto/hmac per body, over random keys and bodies of every length a
// frame can have, so resetting between frames never leaks state.
func TestMICKeyMatchesHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20; k++ {
		key := make([]byte, 1+rng.Intn(64))
		rng.Read(key)
		mk := NewMICKey(key)
		for i := 0; i < 50; i++ {
			body := make([]byte, rng.Intn(9+242+1))
			rng.Read(body)
			ref := hmac.New(sha256.New, key)
			ref.Write(body)
			want := ref.Sum(nil)[:4]
			if got := mk.compute(body); !bytes.Equal(got[:], want) {
				t.Fatalf("key %x body %x: MIC %x, want %x", key, body, got, want)
			}
		}
	}
}

// TestMarshalVerifyAllocs bounds a data frame's Marshal plus Verify:
// the body buffer of each, with the MIC computed in place. A fresh
// HMAC per frame costs 15 allocations.
func TestMarshalVerifyAllocs(t *testing.T) {
	f := &Frame{MType: ConfirmedDataUp, DevAddr: 1, FCnt: 1, FPort: 1, Payload: make([]byte, 24)}
	allocs := testing.AllocsPerRun(100, func() {
		f.Marshal(testKey)
		if err := f.Verify(testKey); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Marshal+Verify = %v allocs, want <= 2", allocs)
	}
}
