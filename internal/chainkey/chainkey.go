// Package chainkey provides the key material used on the simulated
// Helium blockchain: ed25519 keypairs, base32-flavored addresses, and
// detached signatures over transaction payloads. Wallets (owner
// accounts), hotspots, routers/OUIs, and devices all identify
// themselves with a chainkey address.
package chainkey

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base32"

	"peoplesnet/internal/stats"
)

// AddressPrefix distinguishes simulated addresses from anything real.
const AddressPrefix = "sim1"

var addrEncoding = base32.StdEncoding.WithPadding(base32.NoPadding)

// Keypair is an ed25519 signing identity.
type Keypair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// Generate creates a keypair from the deterministic RNG. Simulation
// keys must be reproducible from the world seed, so generation draws
// the 32-byte seed from rng rather than crypto/rand.
func Generate(rng *stats.RNG) *Keypair {
	seed := make([]byte, ed25519.SeedSize)
	for i := 0; i < len(seed); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < len(seed); j++ {
			seed[i+j] = byte(v >> (8 * j))
		}
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &Keypair{
		Public:  priv.Public().(ed25519.PublicKey),
		private: priv,
	}
}

// Address returns the wallet/hotspot address for the public key:
// "sim1" + base32(sha256(pub)[:20]).
func (k *Keypair) Address() string { return AddressOf(k.Public) }

// AddressOf derives the address for any public key.
func AddressOf(pub ed25519.PublicKey) string {
	sum := sha256.Sum256(pub)
	return AddressPrefix + addrEncoding.EncodeToString(sum[:20])
}

// Sign returns a detached ed25519 signature over msg.
func (k *Keypair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Verify checks sig over msg against pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}
