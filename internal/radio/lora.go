// Package radio models the LoRa physical layer well enough to drive
// the study's coverage and reliability experiments: spreading factors
// and airtime, per-SF receiver sensitivity, free-space and log-
// distance path loss with shadowing, regional channel plans, EIRP
// limits, and the uplink/downlink asymmetry the paper cites (§8.2,
// [21]) when classifying false NACKs.
package radio

import (
	"fmt"
	"math"

	"peoplesnet/internal/stats"
)

// SpreadingFactor is the LoRa chirp spreading factor.
type SpreadingFactor int

// Valid spreading factors.
const (
	SF7 SpreadingFactor = 7 + iota
	SF8
	SF9
	SF10
	SF11
	SF12
)

// Valid reports whether sf is one of SF7..SF12.
func (sf SpreadingFactor) Valid() bool { return sf >= SF7 && sf <= SF12 }

func (sf SpreadingFactor) String() string { return fmt.Sprintf("SF%d", int(sf)) }

// Bandwidth in Hz.
type Bandwidth int

// Standard LoRa bandwidths.
const (
	BW125 Bandwidth = 125_000
	BW250 Bandwidth = 250_000
	BW500 Bandwidth = 500_000
)

// Sensitivity returns the receiver sensitivity in dBm for a typical
// SX1276-class LoRa radio at the given SF and bandwidth. Values follow
// the Semtech datasheet for BW125 and scale +3 dB per bandwidth
// doubling.
func Sensitivity(sf SpreadingFactor, bw Bandwidth) float64 {
	base := map[SpreadingFactor]float64{
		SF7: -123, SF8: -126, SF9: -129, SF10: -132, SF11: -134.5, SF12: -137,
	}[sf]
	switch bw {
	case BW250:
		base += 3
	case BW500:
		base += 6
	}
	return base
}

// DeviceSensitivityDBm is the receiver sensitivity of the paper's
// reference edge hardware (ST B-L072Z-LRWAN1 / Murata module), used by
// the Witness-RSSI coverage model: s = −134 dBm (§8.2.1).
const DeviceSensitivityDBm = -134

// EIRPLimitDBm is the FCC Part 15 EIRP cap the paper cites when
// calling out absurd witness RSSIs (§7.2).
const EIRPLimitDBm = 36

// Airtime returns the on-air duration in seconds of a LoRa frame with
// the given payload length, following the SX1272/76 datasheet formula
// (preamble 8 symbols, explicit header, CR 4/5, low-data-rate
// optimization enabled for SF11/SF12 at BW125).
func Airtime(payloadBytes int, sf SpreadingFactor, bw Bandwidth) float64 {
	if !sf.Valid() || payloadBytes < 0 {
		return 0
	}
	de := 0.0
	if bw == BW125 && sf >= SF11 {
		de = 1
	}
	tSym := math.Pow(2, float64(sf)) / float64(bw)
	preamble := (8 + 4.25) * tSym
	num := 8.0*float64(payloadBytes) - 4*float64(sf) + 28 + 16 // CRC on, header on
	den := 4 * (float64(sf) - 2*de)
	nPayload := 8 + math.Max(math.Ceil(num/den)*5, 0) // CR 4/5 => (CR+4)=5
	return preamble + nPayload*tSym
}

// FSPLdB returns free-space path loss in dB for a distance in km and
// frequency in MHz.
func FSPLdB(distKm, freqMHz float64) float64 {
	if distKm <= 0 {
		return 0
	}
	return 20*math.Log10(distKm) + 20*math.Log10(freqMHz) + 32.44
}

// FSPLRangeM inverts the paper's simplified free-space growth formula
// (§8.2.1): given a link budget w−s in dB, the extra range in meters
// is d = 10^((w−s)/20). The paper applies this with w the witness RSSI
// and s the device sensitivity; at the median w = −108 dBm it yields
// ≈20 m.
func FSPLRangeM(witnessRSSIdBm, sensitivityDBm float64) float64 {
	margin := witnessRSSIdBm - sensitivityDBm
	if margin <= 0 {
		return 0
	}
	return math.Pow(10, margin/20)
}

// Environment selects a log-distance path-loss preset. Exponents and
// shadowing follow common LPWAN measurement literature: free space
// n=2.0, rural n≈2.7, suburban n≈3.0, urban n≈3.5 with heavier
// shadowing.
type Environment int

// Environments.
const (
	FreeSpace Environment = iota
	Rural
	Suburban
	Urban
	DenseUrban
)

func (e Environment) String() string {
	switch e {
	case FreeSpace:
		return "free-space"
	case Rural:
		return "rural"
	case Suburban:
		return "suburban"
	case Urban:
		return "urban"
	case DenseUrban:
		return "dense-urban"
	default:
		return fmt.Sprintf("environment_%d", int(e))
	}
}

// params returns (path-loss exponent, shadowing σ in dB, clutter loss
// C in dB). The clutter term captures building penetration and street
// canyon losses that a pure log-distance exponent misses; the
// combination is tuned so SF12 ranges land where LPWAN field studies
// put them: tens of km rural, ~5–10 km suburban, ~2 km urban.
func (e Environment) params() (n, sigma, clutter float64) {
	switch e {
	case FreeSpace:
		return 2.0, 0, 0
	case Rural:
		return 3.0, 4, 5
	case Suburban:
		return 3.2, 6, 15
	case Urban:
		return 3.5, 8, 25
	case DenseUrban:
		return 3.8, 10, 35
	default:
		return 3.2, 6, 15
	}
}

// PathLossModel computes deterministic median path loss plus, when a
// generator is supplied, log-normal shadowing. The model is
// log-distance anchored at 1 m free-space loss with an additive
// environment clutter term:
//
//	PL(d) = FSPL(1 m) + 10·n·log10(d/1 m) + C
type PathLossModel struct {
	Env     Environment
	FreqMHz float64
}

// NewPathLoss returns a model for env at the given frequency.
func NewPathLoss(env Environment, freqMHz float64) PathLossModel {
	return PathLossModel{Env: env, FreqMHz: freqMHz}
}

// MedianLossDB returns the median path loss at distKm.
func (m PathLossModel) MedianLossDB(distKm float64) float64 {
	if distKm <= 0 {
		return 0
	}
	n, _, clutter := m.Env.params()
	fspl1m := FSPLdB(0.001, m.FreqMHz)
	if distKm <= 0.001 {
		return FSPLdB(distKm, m.FreqMHz)
	}
	return fspl1m + 10*n*math.Log10(distKm/0.001) + clutter
}

// SampleLossDB returns the median loss plus a log-normal shadowing
// draw from rng. A nil rng returns the median.
func (m PathLossModel) SampleLossDB(distKm float64, rng *stats.RNG) float64 {
	loss := m.MedianLossDB(distKm)
	if rng != nil {
		_, sigma, _ := m.Env.params()
		loss += rng.Normal(0, sigma)
	}
	return loss
}

// Link describes a radio link budget between a transmitter and
// receiver.
type Link struct {
	TxPowerDBm  float64
	TxGainDBi   float64
	RxGainDBi   float64
	NoiseFigure float64 // extra loss at the receiver (cheap antennas, enclosure)
	Model       PathLossModel
}

// RSSI returns the received signal strength for the link at distKm,
// with shadowing when rng is non-nil.
func (l Link) RSSI(distKm float64, rng *stats.RNG) float64 {
	return l.TxPowerDBm + l.TxGainDBi + l.RxGainDBi - l.NoiseFigure -
		l.Model.SampleLossDB(distKm, rng)
}

// Delivered reports whether a frame at the given RSSI is decodable at
// sf/bw, applying a soft roll-off near sensitivity: links with ≥3 dB
// margin always decode, links more than 3 dB below sensitivity never
// do, and the window between degrades linearly. This mirrors the PER
// cliff seen in LoRa field measurements.
func Delivered(rssiDBm float64, sf SpreadingFactor, bw Bandwidth, rng *stats.RNG) bool {
	sens := Sensitivity(sf, bw)
	margin := rssiDBm - sens
	switch {
	case margin >= 3:
		return true
	case margin <= -3:
		return false
	default:
		p := (margin + 3) / 6
		if rng == nil {
			return p >= 0.5
		}
		return rng.Bool(p)
	}
}
