// Package chain implements the simulated Helium blockchain: the
// transaction vocabulary the paper's analyses consume (§3), a
// validating ledger state machine (hotspots, wallets, OUIs, state
// channels), block production at a nominal one block per minute, and
// query helpers for scanning transaction history.
//
// The real chain defines 20 native transaction types; this package
// implements the fourteen that carry the information the measurement
// study uses and reserves identifiers for the rest. Amounts follow the
// real system's units: HNT is held in "bones" (1 HNT = 10^8 bones) and
// Data Credits (DC) are integral, pegged at $0.00001 per DC.
package chain

import "fmt"

// TxnType identifies a native transaction variant.
type TxnType uint8

// The transaction vocabulary. Values are stable; they appear in
// serialized ledgers.
const (
	TxnUnknown TxnType = iota
	TxnAddGateway
	TxnAssertLocation
	TxnTransferHotspot
	TxnPoCRequest
	TxnPoCReceipt
	TxnStateChannelOpen
	TxnStateChannelClose
	TxnPayment
	TxnTokenBurn
	TxnOUI
	TxnRewards
	TxnConsensusGroup
	TxnStakeValidator
	TxnRoutingUpdate
	TxnDCCoinbase
	TxnSecurityCoinbase

	// Reserved identifiers for the remaining native types the study
	// does not analyze (chain vars, price oracle, etc.). They never
	// appear in simulated ledgers but keep the numbering aligned with
	// "20 native transactions".
	txnReserved17
	txnReserved18
	txnReserved19
	txnReserved20
)

var txnNames = map[TxnType]string{
	TxnAddGateway:        "add_gateway",
	TxnAssertLocation:    "assert_location",
	TxnTransferHotspot:   "transfer_hotspot",
	TxnPoCRequest:        "poc_request",
	TxnPoCReceipt:        "poc_receipt",
	TxnStateChannelOpen:  "state_channel_open",
	TxnStateChannelClose: "state_channel_close",
	TxnPayment:           "payment",
	TxnTokenBurn:         "token_burn",
	TxnOUI:               "oui",
	TxnRewards:           "rewards",
	TxnConsensusGroup:    "consensus_group",
	TxnStakeValidator:    "stake_validator",
	TxnRoutingUpdate:     "routing_update",
	TxnDCCoinbase:        "dc_coinbase",
	TxnSecurityCoinbase:  "security_coinbase",
}

// String returns the snake_case name used on the real chain.
func (t TxnType) String() string {
	if n, ok := txnNames[t]; ok {
		return n
	}
	return fmt.Sprintf("txn_type_%d", uint8(t))
}

// ParseTxnType resolves a snake_case transaction name ("payment",
// "state_channel_close", …) to its TxnType.
func ParseTxnType(name string) (TxnType, bool) {
	for tt, n := range txnNames {
		if n == name {
			return tt, true
		}
	}
	return TxnUnknown, false
}

// Monetary units.
const (
	BonesPerHNT = 100_000_000 // 1 HNT = 1e8 bones
	// USDPerDC is the fixed Data Credit price: $0.00001 (§2.4).
	USDPerDC = 0.00001
	// OracleUSDPerHNT is the HNT price a token burn converts at: the
	// mid of the paper's May 2021 $8.32–19.70 range. The simulator's
	// rewards follow their own price series (econ), not this one.
	OracleUSDPerHNT = 15.0
)

// Fee schedule (in DC), following the real network's implied-burn
// pricing the paper cites.
const (
	// FeeAssertLocationDC is the $10 assert_location fee (§3).
	FeeAssertLocationDC = 1_000_000
	// FeeAddGatewayDC is the $40 gateway onboarding fee. (§7.1's
	// "$40USD cost to re-assert" conflates onboarding and assert; we
	// keep the two fees distinct.)
	FeeAddGatewayDC = 4_000_000
	// FreeAssertsPerHotspot: Helium pays the assert fee for a
	// hotspot's first two moves (§4.1).
	FreeAssertsPerHotspot = 2
	// FeeOUIDC is the cost of purchasing an OUI.
	FeeOUIDC = 10_000_000
	// FeeDCPerByte prices data packets: 1 DC per 24-byte increment,
	// minimum 1 DC per packet.
	DCPacketBytes = 24
)

// State-channel protocol constants (§5.1).
const (
	// StateChannelMinBlocks and MaxBlocks bound a channel's lifetime,
	// per the blockchain-core check the paper quotes (footnote 9).
	StateChannelMinBlocks = 10
	StateChannelMaxBlocks = 10_080 // one week of one-minute blocks
)

// PoC protocol constants.
const (
	// PoCChallengeIntervalBlocks is how often a hotspot may issue a
	// challenge: at most once per block. The paper's network allows one
	// challenge every 480 blocks (§7.1), but this chain is sampled — each
	// PoC transaction stands for PoCWeight (600) real ones — and the
	// simulator draws one challenge per challenger per region per day
	// into hourly blocks 60 heights apart, so a 480-block rule would
	// reject challenges the sampled schedule legitimately makes.
	PoCChallengeIntervalBlocks = 1
	// WitnessMinDistanceM is HIP15's witness distance floor (§8.2.1).
	WitnessMinDistanceM = 300
)

// BlockIntervalSec is the nominal block time (§3: one block ≈ 60 s).
const BlockIntervalSec = 60

// BlocksPerDay at the nominal block interval.
const BlocksPerDay = 24 * 60 * 60 / BlockIntervalSec
