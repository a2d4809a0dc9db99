// Package lorawan implements the slice of the LoRaWAN MAC that the
// Helium data plane exercises: OTAA join (§2.2), uplink/downlink data
// frames with frame counters and MICs, the class-A receive windows
// whose 1 s/2 s deadlines constrain router placement (§5.2), and
// Helium's OUI-based routing lookup that overloads LoRaWAN
// identifiers.
//
// Frames marshal to a compact binary wire format patterned after the
// real PHYPayload layout (MHDR | MACPayload | MIC) so that packet
// forwarders can carry them as opaque bytes, and parse lazily in the
// style of layered packet decoders: header first, payload on demand.
package lorawan

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
)

// MType is the LoRaWAN message type carried in the MHDR.
type MType uint8

// LoRaWAN message types.
const (
	JoinRequestType MType = iota
	JoinAcceptType
	UnconfirmedDataUp
	UnconfirmedDataDown
	ConfirmedDataUp
	ConfirmedDataDown
	rfu
	Proprietary
)

func (m MType) String() string {
	switch m {
	case JoinRequestType:
		return "JoinRequest"
	case JoinAcceptType:
		return "JoinAccept"
	case UnconfirmedDataUp:
		return "UnconfirmedDataUp"
	case UnconfirmedDataDown:
		return "UnconfirmedDataDown"
	case ConfirmedDataUp:
		return "ConfirmedDataUp"
	case ConfirmedDataDown:
		return "ConfirmedDataDown"
	case Proprietary:
		return "Proprietary"
	default:
		return fmt.Sprintf("MType(%d)", uint8(m))
	}
}

// Uplink reports whether the message type flows device→network.
func (m MType) Uplink() bool {
	return m == JoinRequestType || m == UnconfirmedDataUp || m == ConfirmedDataUp
}

// Confirmed reports whether the message type demands an ACK.
func (m MType) Confirmed() bool {
	return m == ConfirmedDataUp || m == ConfirmedDataDown
}

// EUI64 is an 8-byte extended unique identifier (DevEUI / AppEUI).
type EUI64 [8]byte

func (e EUI64) String() string { return fmt.Sprintf("%016x", e[:]) }

// EUIFromUint64 packs a uint64 big-endian.
func EUIFromUint64(v uint64) EUI64 {
	var e EUI64
	binary.BigEndian.PutUint64(e[:], v)
	return e
}

// DevAddr is the 4-byte network session address assigned at join.
type DevAddr uint32

func (d DevAddr) String() string { return fmt.Sprintf("%08x", uint32(d)) }

// AppKey is the 16-byte root key provisioned into a device.
type AppKey [16]byte

// SessionKeys are derived at join.
type SessionKeys struct {
	NwkSKey [16]byte
	AppSKey [16]byte
}

// DeriveSessionKeys derives network and application session keys from
// the root key and the join nonces, using HMAC-SHA256 in place of the
// spec's AES construction (equivalent strength, stdlib-only).
func DeriveSessionKeys(appKey AppKey, devNonce uint16, joinNonce uint32) SessionKeys {
	derive := func(label byte) [16]byte {
		mac := hmac.New(sha256.New, appKey[:])
		var buf [7]byte
		buf[0] = label
		binary.BigEndian.PutUint16(buf[1:3], devNonce)
		binary.BigEndian.PutUint32(buf[3:7], joinNonce)
		mac.Write(buf[:])
		var out [16]byte
		copy(out[:], mac.Sum(nil))
		return out
	}
	return SessionKeys{NwkSKey: derive(0x01), AppSKey: derive(0x02)}
}

// Receive window offsets after the end of an uplink (§5.2: "two
// acknowledgment windows, at precisely 1 s and 2 s").
const (
	RX1DelaySec = 1
	RX2DelaySec = 2
)

// Frame is a decoded LoRaWAN frame. JoinRequest fields are populated
// for JoinRequestType, DevAddr/FCnt/payload fields otherwise.
type Frame struct {
	MType MType

	// Join request fields.
	AppEUI   EUI64
	DevEUI   EUI64
	DevNonce uint16

	// Join accept fields.
	JoinNonce uint32

	// Data frame fields.
	DevAddr DevAddr
	FCtrl   FCtrl
	FCnt    uint16
	FPort   uint8
	Payload []byte

	// MIC is the 4-byte integrity code over everything above.
	MIC [4]byte
}

// FCtrl carries the frame control bits used by the study.
type FCtrl struct {
	ADR bool
	ACK bool // downlink: acknowledges a confirmed uplink
}

func (f FCtrl) byteVal() byte {
	var b byte
	if f.ADR {
		b |= 0x80
	}
	if f.ACK {
		b |= 0x20
	}
	return b
}

func fctrlFromByte(b byte) FCtrl {
	return FCtrl{ADR: b&0x80 != 0, ACK: b&0x20 != 0}
}

// MICKey computes frame integrity codes under one key. The keyed
// HMAC is built once and reset between frames, so a frame costs one
// hash and no allocation. A MICKey is not safe for concurrent use:
// keep one per owner (a device, a router session).
type MICKey struct {
	mac hash.Hash
	sum [sha256.Size]byte
}

// NewMICKey prepares key for computing MICs.
func NewMICKey(key []byte) *MICKey {
	return &MICKey{mac: hmac.New(sha256.New, key)}
}

// compute returns the integrity code over the serialized frame sans
// MIC.
func (k *MICKey) compute(body []byte) [4]byte {
	k.mac.Reset()
	k.mac.Write(body)
	var mic [4]byte
	copy(mic[:], k.mac.Sum(k.sum[:0]))
	return mic
}

// Errors returned by the codec.
var (
	ErrShortFrame = errors.New("lorawan: frame too short")
	ErrBadMIC     = errors.New("lorawan: MIC verification failed")
)

// Marshal serializes the frame and appends a MIC computed with key.
// For join requests the key is the AppKey; for data frames it is the
// NwkSKey.
func (f *Frame) Marshal(key *MICKey) []byte {
	body := f.marshalBody()
	mic := key.compute(body)
	f.MIC = mic
	return append(body, mic[:]...)
}

// marshalBody serializes the frame sans MIC, leaving capacity for
// Marshal to append the MIC in place.
func (f *Frame) marshalBody() []byte {
	switch f.MType {
	case JoinRequestType:
		out := make([]byte, 1+8+8+2, 1+8+8+2+4)
		out[0] = byte(f.MType) << 5
		copy(out[1:9], f.AppEUI[:])
		copy(out[9:17], f.DevEUI[:])
		binary.LittleEndian.PutUint16(out[17:19], f.DevNonce)
		return out
	case JoinAcceptType:
		out := make([]byte, 1+4+4, 1+4+4+4)
		out[0] = byte(f.MType) << 5
		binary.LittleEndian.PutUint32(out[1:5], f.JoinNonce)
		binary.LittleEndian.PutUint32(out[5:9], uint32(f.DevAddr))
		return out
	default:
		out := make([]byte, 1+4+1+2+1, 9+len(f.Payload)+4)
		out[0] = byte(f.MType) << 5
		binary.LittleEndian.PutUint32(out[1:5], uint32(f.DevAddr))
		out[5] = f.FCtrl.byteVal()
		binary.LittleEndian.PutUint16(out[6:8], f.FCnt)
		out[8] = f.FPort
		return append(out, f.Payload...)
	}
}

// Parse decodes a wire frame without verifying the MIC (hotspots relay
// frames they cannot verify; only the owning router holds keys).
func Parse(wire []byte) (*Frame, error) {
	if len(wire) < 5 {
		return nil, ErrShortFrame
	}
	body, micBytes := wire[:len(wire)-4], wire[len(wire)-4:]
	f := &Frame{MType: MType(body[0] >> 5)}
	copy(f.MIC[:], micBytes)
	switch f.MType {
	case JoinRequestType:
		if len(body) < 19 {
			return nil, ErrShortFrame
		}
		copy(f.AppEUI[:], body[1:9])
		copy(f.DevEUI[:], body[9:17])
		f.DevNonce = binary.LittleEndian.Uint16(body[17:19])
	case JoinAcceptType:
		if len(body) < 9 {
			return nil, ErrShortFrame
		}
		f.JoinNonce = binary.LittleEndian.Uint32(body[1:5])
		f.DevAddr = DevAddr(binary.LittleEndian.Uint32(body[5:9]))
	default:
		if len(body) < 9 {
			return nil, ErrShortFrame
		}
		f.DevAddr = DevAddr(binary.LittleEndian.Uint32(body[1:5]))
		f.FCtrl = fctrlFromByte(body[5])
		f.FCnt = binary.LittleEndian.Uint16(body[6:8])
		f.FPort = body[8]
		f.Payload = append([]byte(nil), body[9:]...)
	}
	return f, nil
}

// Verify checks the frame's MIC against key. The frame must have been
// produced by Parse or Marshal.
func (f *Frame) Verify(key *MICKey) error {
	want := key.compute(f.marshalBody())
	if !hmac.Equal(want[:], f.MIC[:]) {
		return ErrBadMIC
	}
	return nil
}
