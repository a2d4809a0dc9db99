// Package device models the edge devices of §8's experiments: a
// class-A LoRaWAN device running the paper's free-running counter app
// (send, wait for the 1 s / 2 s ACK windows, send again), with a local
// send log standing in for the SD card the authors compare against
// cloud-side records, and GPS walk traces for the coverage walks
// (§8.2.2).
package device

import (
	"encoding/binary"
	"errors"
	"fmt"

	"peoplesnet/internal/geo"
	"peoplesnet/internal/lorawan"
)

// Device is one class-A edge device. Time is virtual: the experiment
// driver advances it and calls the device at the right instants.
type Device struct {
	DevEUI lorawan.EUI64
	AppEUI lorawan.EUI64
	AppKey lorawan.AppKey

	devNonce uint16
	joined   bool
	devAddr  lorawan.DevAddr
	keys     lorawan.SessionKeys

	fcnt    uint16
	counter uint32

	log []SendRecord
}

// SendRecord is one line of the device's local log — the ground truth
// §8 compares against cloud records.
type SendRecord struct {
	Counter  uint32
	FCnt     uint16
	SentAt   float64 // virtual seconds
	Location geo.Point
	// Acked and AckWindow record the device's view: whether an ACK
	// arrived, and in which window (1 or 2).
	Acked     bool
	AckWindow int
}

// New creates a device with the given identifiers.
func New(devEUI, appEUI lorawan.EUI64, appKey lorawan.AppKey) *Device {
	return &Device{DevEUI: devEUI, AppEUI: appEUI, AppKey: appKey}
}

// Joined reports whether OTAA completed.
func (d *Device) Joined() bool { return d.joined }

// DevAddr returns the session address (zero before join).
func (d *Device) DevAddr() lorawan.DevAddr { return d.devAddr }

// BuildJoinRequest produces the next OTAA join request frame.
func (d *Device) BuildJoinRequest() []byte {
	d.devNonce++
	f := &lorawan.Frame{
		MType:    lorawan.JoinRequestType,
		AppEUI:   d.AppEUI,
		DevEUI:   d.DevEUI,
		DevNonce: d.devNonce,
	}
	return f.Marshal(d.AppKey[:])
}

// Errors.
var (
	ErrNotJoinAccept = errors.New("device: not a join accept")
	ErrNotJoined     = errors.New("device: not joined")
)

// HandleJoinAccept completes OTAA from the downlink frame.
func (d *Device) HandleJoinAccept(wire []byte) error {
	f, err := lorawan.Parse(wire)
	if err != nil {
		return err
	}
	if f.MType != lorawan.JoinAcceptType {
		return ErrNotJoinAccept
	}
	if err := f.Verify(d.AppKey[:]); err != nil {
		return fmt.Errorf("device: join accept MIC: %w", err)
	}
	d.joined = true
	d.devAddr = f.DevAddr
	d.keys = lorawan.DeriveSessionKeys(d.AppKey, d.devNonce, f.JoinNonce)
	return nil
}

// CounterPayload is the app payload of the paper's test app: an
// incrementing counter plus (for walks) a GPS fix and timestamp
// (§8.2.2: "We add GPS coordinates and a timestamp to the app
// payload").
type CounterPayload struct {
	Counter   uint32
	Lat, Lon  float64
	Timestamp float64
}

// marshal packs the payload into 24 bytes.
func (c CounterPayload) marshal() []byte {
	out := make([]byte, 24)
	binary.BigEndian.PutUint32(out[0:4], c.Counter)
	binary.BigEndian.PutUint32(out[4:8], uint32(int32((c.Lat+90)*1e5)))
	binary.BigEndian.PutUint32(out[8:12], uint32(int32((c.Lon+180)*1e5)))
	binary.BigEndian.PutUint64(out[12:20], uint64(c.Timestamp*1000))
	return out
}

// ParseCounterPayload decodes a counter app payload.
func ParseCounterPayload(raw []byte) (CounterPayload, error) {
	if len(raw) < 20 {
		return CounterPayload{}, fmt.Errorf("device: payload too short (%d bytes)", len(raw))
	}
	return CounterPayload{
		Counter:   binary.BigEndian.Uint32(raw[0:4]),
		Lat:       float64(int32(binary.BigEndian.Uint32(raw[4:8])))/1e5 - 90,
		Lon:       float64(int32(binary.BigEndian.Uint32(raw[8:12])))/1e5 - 180,
		Timestamp: float64(binary.BigEndian.Uint64(raw[12:20])) / 1000,
	}, nil
}

// SendCounter builds the next confirmed uplink of the counter app and
// logs it. at is virtual time; loc is where the device is (zero for
// the stationary §8.1 experiment).
func (d *Device) SendCounter(at float64, loc geo.Point) ([]byte, error) {
	if !d.joined {
		return nil, ErrNotJoined
	}
	d.counter++
	d.fcnt++
	payload := CounterPayload{Counter: d.counter, Lat: loc.Lat, Lon: loc.Lon, Timestamp: at}
	f := &lorawan.Frame{
		MType:   lorawan.ConfirmedDataUp,
		DevAddr: d.devAddr,
		FCnt:    d.fcnt,
		FPort:   1,
		Payload: payload.marshal(),
	}
	d.log = append(d.log, SendRecord{
		Counter: d.counter, FCnt: d.fcnt, SentAt: at, Location: loc,
	})
	return f.Marshal(d.keys.NwkSKey[:]), nil
}

// HandleDownlink processes a received downlink; if it is a valid ACK
// for the most recent uplink, the log entry is marked acknowledged and
// acked is true. window records which RX window delivered it.
func (d *Device) HandleDownlink(wire []byte, window int) (acked bool, err error) {
	if !d.joined {
		return false, ErrNotJoined
	}
	f, err := lorawan.Parse(wire)
	if err != nil {
		return false, err
	}
	if f.DevAddr != d.devAddr {
		return false, fmt.Errorf("device: downlink for %v, we are %v", f.DevAddr, d.devAddr)
	}
	if err := f.Verify(d.keys.NwkSKey[:]); err != nil {
		return false, err
	}
	if !f.FCtrl.ACK || len(d.log) == 0 {
		return false, nil
	}
	last := &d.log[len(d.log)-1]
	if f.FCnt != last.FCnt {
		return false, nil
	}
	last.Acked = true
	last.AckWindow = window
	return true, nil
}

// Log returns a copy of the device's send log (the SD card).
func (d *Device) Log() []SendRecord { return append([]SendRecord(nil), d.log...) }

// Counter returns the last counter value sent.
func (d *Device) Counter() uint32 { return d.counter }

// NextSendDelay implements the free-running schedule (§8.1 footnote
// 15): the next send happens right after the prior packet's response
// resolves — 1 s after transmit if ACK'd in RX1, else 2 s.
func NextSendDelay(acked bool, window int) float64 {
	if acked && window == 1 {
		return lorawan.RX1DelaySec
	}
	return lorawan.RX2DelaySec
}

// Walk is a GPS trace: waypoints visited at constant speed.
type Walk struct {
	Waypoints []geo.Point
	SpeedKmh  float64
}

// Duration returns the total walk time in seconds.
func (w Walk) Duration() float64 {
	if w.SpeedKmh <= 0 || len(w.Waypoints) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(w.Waypoints); i++ {
		total += geo.HaversineKm(w.Waypoints[i-1], w.Waypoints[i])
	}
	return total / w.SpeedKmh * 3600
}

// PositionAt returns the walker's location at time t seconds from the
// start, clamping to the endpoints.
func (w Walk) PositionAt(t float64) geo.Point {
	if len(w.Waypoints) == 0 {
		return geo.Point{}
	}
	if len(w.Waypoints) == 1 || w.SpeedKmh <= 0 || t <= 0 {
		return w.Waypoints[0]
	}
	remainingKm := t / 3600 * w.SpeedKmh
	for i := 1; i < len(w.Waypoints); i++ {
		leg := geo.HaversineKm(w.Waypoints[i-1], w.Waypoints[i])
		if remainingKm <= leg {
			if leg == 0 {
				return w.Waypoints[i]
			}
			frac := remainingKm / leg
			bearing := geo.InitialBearing(w.Waypoints[i-1], w.Waypoints[i])
			return geo.Destination(w.Waypoints[i-1], bearing, leg*frac)
		}
		remainingKm -= leg
	}
	return w.Waypoints[len(w.Waypoints)-1]
}
