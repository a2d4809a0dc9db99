package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"peoplesnet/internal/h3lite"
	"peoplesnet/internal/wire"
)

// Txn is one blockchain transaction. Implementations are the concrete
// payload structs below. A Txn validates itself against ledger state
// and then applies its effects; both run inside the ledger's lock
// during block appends.
type Txn interface {
	// TxnType returns the variant tag.
	TxnType() TxnType
	// validate checks the transaction against current ledger state.
	validate(l *Ledger, height int64) error
	// apply mutates ledger state. Called only after validate passes.
	apply(l *Ledger, height int64)
}

// TxnID is a transaction's ID as raw bytes: the first 16 bytes of
// the SHA-256 of its type tag plus binary wire encoding. Hash is its
// hex form.
type TxnID [16]byte

// String returns the ID's hex form, the string Hash returns.
func (id TxnID) String() string { return hex.EncodeToString(id[:]) }

// IDOf hashes a transaction to its ID. The encoding is injective per
// variant (length-prefixed strings, fixed-width numbers) and an order
// of magnitude cheaper than marshalling JSON. A chain hashes each
// transaction once, when it admits the block, and keeps the ID on the
// block (Block.TxnHash), so readers of appended blocks never hash
// again. The encode buffer comes from hashBufs, so hashing a rewards
// transaction does not regrow a fresh buffer to hundreds of KB each
// time.
func IDOf(t Txn) TxnID {
	w := hashBufs.Get().(*wire.Writer)
	w.Buf = w.Buf[:0]
	w.U8(uint8(t.TxnType()))
	encodeTxn(w, t)
	sum := sha256.Sum256(w.Buf)
	hashBufs.Put(w)
	return TxnID(sum[:16])
}

// Hash returns a transaction's ID in hex, the form listings and
// block hashes use. It hashes t afresh; for a transaction on an
// appended block, Block.TxnHash returns the ID the chain kept.
func Hash(t Txn) string { return IDOf(t).String() }

// hashBufs pools IDOf's encode buffers.
var hashBufs = sync.Pool{New: func() any { return &wire.Writer{Buf: make([]byte, 0, 256)} }}

// AddGateway registers a new hotspot (§3). Gateway and Owner are
// wallet-style addresses; Location may be InvalidCell when the hotspot
// is added before its first location assertion.
type AddGateway struct {
	Gateway  string      `json:"gateway"`
	Owner    string      `json:"owner"`
	Location h3lite.Cell `json:"location,omitempty"`
	// Maker identifies the vendor batch the hotspot shipped in.
	Maker string `json:"maker,omitempty"`
}

func (t *AddGateway) TxnType() TxnType { return TxnAddGateway }

func (t *AddGateway) validate(l *Ledger, height int64) error {
	if t.Gateway == "" || t.Owner == "" {
		return fmt.Errorf("add_gateway: missing gateway or owner")
	}
	if _, ok := l.hotspots[t.Gateway]; ok {
		return fmt.Errorf("add_gateway: hotspot %s already exists", t.Gateway)
	}
	return nil
}

func (t *AddGateway) apply(l *Ledger, height int64) {
	h := &Hotspot{
		Address:    t.Gateway,
		Owner:      t.Owner,
		Maker:      t.Maker,
		AddedBlock: height,
		Location:   t.Location,
	}
	if t.Location != h3lite.InvalidCell {
		h.LocationHistory = append(h.LocationHistory, LocationEvent{Block: height, Cell: t.Location})
	}
	l.hotspots[t.Gateway] = h
	l.account(t.Owner).Hotspots++
}

// AssertLocation publishes or changes a hotspot's location (§3). The
// fee is FeeAssertLocationDC unless the hotspot still has free asserts
// remaining.
type AssertLocation struct {
	Gateway  string      `json:"gateway"`
	Owner    string      `json:"owner"`
	Location h3lite.Cell `json:"location"`
	Nonce    int         `json:"nonce"`
}

func (t *AssertLocation) TxnType() TxnType { return TxnAssertLocation }

func (t *AssertLocation) validate(l *Ledger, height int64) error {
	h, ok := l.hotspots[t.Gateway]
	if !ok {
		return fmt.Errorf("assert_location: unknown hotspot %s", t.Gateway)
	}
	if h.Owner != t.Owner {
		return fmt.Errorf("assert_location: %s not owned by %s", t.Gateway, t.Owner)
	}
	if !t.Location.Valid() {
		return fmt.Errorf("assert_location: invalid cell")
	}
	if t.Nonce != h.AssertCount+1 {
		return fmt.Errorf("assert_location: nonce %d, want %d", t.Nonce, h.AssertCount+1)
	}
	if h.AssertCount >= FreeAssertsPerHotspot {
		if l.account(t.Owner).DC < FeeAssertLocationDC {
			return fmt.Errorf("assert_location: owner %s has %d DC, fee is %d",
				t.Owner, l.account(t.Owner).DC, FeeAssertLocationDC)
		}
	}
	return nil
}

func (t *AssertLocation) apply(l *Ledger, height int64) {
	h := l.hotspots[t.Gateway]
	if h.AssertCount >= FreeAssertsPerHotspot {
		l.account(t.Owner).DC -= FeeAssertLocationDC
		l.dcBurned += FeeAssertLocationDC
	}
	h.AssertCount++
	h.Location = t.Location
	h.LocationHistory = append(h.LocationHistory, LocationEvent{Block: height, Cell: t.Location})
}

// TransferHotspot sells an established hotspot to a new owner (§4.3.3).
// AmountBones is the on-chain payment; the paper finds 95.8% of
// transfers move 0 DC because payment happens off chain.
type TransferHotspot struct {
	Gateway     string `json:"gateway"`
	Seller      string `json:"seller"`
	Buyer       string `json:"buyer"`
	AmountBones int64  `json:"amount_bones"`
}

func (t *TransferHotspot) TxnType() TxnType { return TxnTransferHotspot }

func (t *TransferHotspot) validate(l *Ledger, height int64) error {
	h, ok := l.hotspots[t.Gateway]
	if !ok {
		return fmt.Errorf("transfer_hotspot: unknown hotspot %s", t.Gateway)
	}
	if h.Owner != t.Seller {
		return fmt.Errorf("transfer_hotspot: %s not owned by seller %s", t.Gateway, t.Seller)
	}
	if t.Buyer == "" || t.Buyer == t.Seller {
		return fmt.Errorf("transfer_hotspot: bad buyer")
	}
	if t.AmountBones < 0 {
		return fmt.Errorf("transfer_hotspot: negative amount")
	}
	if t.AmountBones > 0 && l.account(t.Buyer).HNTBones < t.AmountBones {
		return fmt.Errorf("transfer_hotspot: buyer balance %d < %d", l.account(t.Buyer).HNTBones, t.AmountBones)
	}
	return nil
}

func (t *TransferHotspot) apply(l *Ledger, height int64) {
	h := l.hotspots[t.Gateway]
	if t.AmountBones > 0 {
		l.account(t.Buyer).HNTBones -= t.AmountBones
		l.account(t.Seller).HNTBones += t.AmountBones
	}
	l.account(t.Seller).Hotspots--
	l.account(t.Buyer).Hotspots++
	h.Owner = t.Buyer
	h.TransferCount++
	h.OwnerHistory = append(h.OwnerHistory, OwnerEvent{Block: height, Owner: t.Buyer})
}

// PoCRequest announces a challenge (§2.3). The challenger commits to
// an onion secret; the matching PoCReceipt carries the outcome.
type PoCRequest struct {
	Challenger string `json:"challenger"`
	SecretHash string `json:"secret_hash"`
}

func (t *PoCRequest) TxnType() TxnType { return TxnPoCRequest }

func (t *PoCRequest) validate(l *Ledger, height int64) error {
	h, ok := l.hotspots[t.Challenger]
	if !ok {
		return fmt.Errorf("poc_request: unknown challenger %s", t.Challenger)
	}
	if h.LastChallengeBlock > 0 && height-h.LastChallengeBlock < l.pocIntervalBlocks {
		return fmt.Errorf("poc_request: challenger %s challenged %d blocks ago (interval %d)",
			t.Challenger, height-h.LastChallengeBlock, l.pocIntervalBlocks)
	}
	return nil
}

func (t *PoCRequest) apply(l *Ledger, height int64) {
	l.hotspots[t.Challenger].LastChallengeBlock = height
}

// WitnessReport is one witness entry inside a PoCReceipt.
type WitnessReport struct {
	Witness  string      `json:"witness"`
	RSSIdBm  float64     `json:"rssi_dbm"`
	SNRdB    float64     `json:"snr_db"`
	Channel  int         `json:"channel"`
	Location h3lite.Cell `json:"location"` // location claimed at witness time
	Valid    bool        `json:"valid"`    // validity verdict recorded on chain
	Reason   string      `json:"reason,omitempty"`
}

// PoCReceipt records a completed challenge: the challengee transmitted
// and zero or more witnesses reported the packet (§2.3).
type PoCReceipt struct {
	Challenger string `json:"challenger"`
	Challengee string `json:"challengee"`
	// ChallengeeLocation is the asserted location at receipt time.
	ChallengeeLocation h3lite.Cell     `json:"challengee_location"`
	Witnesses          []WitnessReport `json:"witnesses"`
}

func (t *PoCReceipt) TxnType() TxnType { return TxnPoCReceipt }

func (t *PoCReceipt) validate(l *Ledger, height int64) error {
	if _, ok := l.hotspots[t.Challenger]; !ok {
		return fmt.Errorf("poc_receipt: unknown challenger %s", t.Challenger)
	}
	if _, ok := l.hotspots[t.Challengee]; !ok {
		return fmt.Errorf("poc_receipt: unknown challengee %s", t.Challengee)
	}
	for _, w := range t.Witnesses {
		if _, ok := l.hotspots[w.Witness]; !ok {
			return fmt.Errorf("poc_receipt: unknown witness %s", w.Witness)
		}
	}
	return nil
}

func (t *PoCReceipt) apply(l *Ledger, height int64) {
	l.hotspots[t.Challengee].LastPoCBlock = height
	for _, w := range t.Witnesses {
		if w.Valid {
			l.hotspots[w.Witness].ValidWitnessCount++
		}
	}
}

// StateChannelOpen stakes DC for future packet purchases (§5.1).
type StateChannelOpen struct {
	ID           string `json:"id"`
	Owner        string `json:"owner"` // router wallet
	OUI          uint32 `json:"oui"`
	AmountDC     int64  `json:"amount_dc"`
	ExpireWithin int64  `json:"expire_within"` // blocks until close deadline
}

func (t *StateChannelOpen) TxnType() TxnType { return TxnStateChannelOpen }

func (t *StateChannelOpen) validate(l *Ledger, height int64) error {
	if t.ID == "" {
		return fmt.Errorf("state_channel_open: empty id")
	}
	if _, ok := l.channels[t.ID]; ok {
		return fmt.Errorf("state_channel_open: channel %s already open", t.ID)
	}
	if t.ExpireWithin < StateChannelMinBlocks || t.ExpireWithin > StateChannelMaxBlocks {
		return fmt.Errorf("state_channel_open: expire_within %d outside [%d,%d]",
			t.ExpireWithin, StateChannelMinBlocks, StateChannelMaxBlocks)
	}
	if t.AmountDC <= 0 {
		return fmt.Errorf("state_channel_open: non-positive stake")
	}
	oui, ok := l.ouis[t.OUI]
	if !ok {
		return fmt.Errorf("state_channel_open: unknown OUI %d", t.OUI)
	}
	if oui.Owner != t.Owner {
		return fmt.Errorf("state_channel_open: OUI %d not owned by %s", t.OUI, t.Owner)
	}
	if l.account(t.Owner).DC < t.AmountDC {
		return fmt.Errorf("state_channel_open: owner %s has %d DC < stake %d",
			t.Owner, l.account(t.Owner).DC, t.AmountDC)
	}
	return nil
}

func (t *StateChannelOpen) apply(l *Ledger, height int64) {
	l.account(t.Owner).DC -= t.AmountDC
	l.channels[t.ID] = &channelState{
		owner:       t.Owner,
		oui:         t.OUI,
		stakedDC:    t.AmountDC,
		expireBlock: height + t.ExpireWithin,
	}
}

// SCSummary is one hotspot's line item in a state channel close: how
// many packets and DC the router is paying for.
type SCSummary struct {
	Hotspot string `json:"hotspot"`
	Packets int64  `json:"packets"`
	DC      int64  `json:"dc"`
}

// StateChannelClose settles a channel (§5.1): spent DC are burned,
// summarized hotspots are credited data-transfer rewards at the next
// rewards transaction, and unspent stake returns to the router.
type StateChannelClose struct {
	ID        string      `json:"id"`
	Owner     string      `json:"owner"`
	Summaries []SCSummary `json:"summaries"`
}

func (t *StateChannelClose) TxnType() TxnType { return TxnStateChannelClose }

// TotalPackets sums packets over all summaries.
func (t *StateChannelClose) TotalPackets() int64 {
	var n int64
	for _, s := range t.Summaries {
		n += s.Packets
	}
	return n
}

// TotalDC sums DC over all summaries.
func (t *StateChannelClose) TotalDC() int64 {
	var n int64
	for _, s := range t.Summaries {
		n += s.DC
	}
	return n
}

func (t *StateChannelClose) validate(l *Ledger, height int64) error {
	ch, ok := l.channels[t.ID]
	if !ok {
		return fmt.Errorf("state_channel_close: unknown channel %s", t.ID)
	}
	if ch.owner != t.Owner {
		return fmt.Errorf("state_channel_close: channel %s not owned by %s", t.ID, t.Owner)
	}
	spent := t.TotalDC()
	if spent > ch.stakedDC {
		return fmt.Errorf("state_channel_close: spend %d exceeds stake %d", spent, ch.stakedDC)
	}
	for _, s := range t.Summaries {
		if s.Packets < 0 || s.DC < 0 {
			return fmt.Errorf("state_channel_close: negative summary for %s", s.Hotspot)
		}
		if _, ok := l.hotspots[s.Hotspot]; !ok {
			return fmt.Errorf("state_channel_close: unknown hotspot %s", s.Hotspot)
		}
	}
	return nil
}

func (t *StateChannelClose) apply(l *Ledger, height int64) {
	ch := l.channels[t.ID]
	spent := t.TotalDC()
	l.account(t.Owner).DC += ch.stakedDC - spent // refund unspent stake
	l.dcBurned += spent
	for _, s := range t.Summaries {
		l.hotspots[s.Hotspot].DataPackets += s.Packets
	}
	delete(l.channels, t.ID)
}

// Payment moves HNT between wallets.
type Payment struct {
	Payer       string `json:"payer"`
	Payee       string `json:"payee"`
	AmountBones int64  `json:"amount_bones"`
}

func (t *Payment) TxnType() TxnType { return TxnPayment }

func (t *Payment) validate(l *Ledger, height int64) error {
	if t.AmountBones <= 0 {
		return fmt.Errorf("payment: non-positive amount")
	}
	if l.account(t.Payer).HNTBones < t.AmountBones {
		return fmt.Errorf("payment: payer %s balance %d < %d", t.Payer, l.account(t.Payer).HNTBones, t.AmountBones)
	}
	return nil
}

func (t *Payment) apply(l *Ledger, height int64) {
	l.account(t.Payer).HNTBones -= t.AmountBones
	l.account(t.Payee).HNTBones += t.AmountBones
}

// TokenBurn converts HNT to DC at the oracle price, crediting the
// destination wallet (§5.2: users fund Console accounts this way).
type TokenBurn struct {
	Payer       string `json:"payer"`
	Destination string `json:"destination"`
	AmountBones int64  `json:"amount_bones"`
}

func (t *TokenBurn) TxnType() TxnType { return TxnTokenBurn }

func (t *TokenBurn) validate(l *Ledger, height int64) error {
	if t.AmountBones <= 0 {
		return fmt.Errorf("token_burn: non-positive amount")
	}
	if l.account(t.Payer).HNTBones < t.AmountBones {
		return fmt.Errorf("token_burn: payer balance %d < %d", l.account(t.Payer).HNTBones, t.AmountBones)
	}
	return nil
}

func (t *TokenBurn) apply(l *Ledger, height int64) {
	l.account(t.Payer).HNTBones -= t.AmountBones
	hnt := float64(t.AmountBones) / BonesPerHNT
	dc := int64(math.Round(hnt * OracleUSDPerHNT / USDPerDC))
	l.account(t.Destination).DC += dc
	l.hntBurnedBones += t.AmountBones
}

// OUIRegistration purchases an Organizationally Unique Identifier,
// entitling the owner to run a router (§5.2).
type OUIRegistration struct {
	OUI     uint32   `json:"oui"`
	Owner   string   `json:"owner"`
	Filters []string `json:"filters,omitempty"` // device EUI filter list
}

func (t *OUIRegistration) TxnType() TxnType { return TxnOUI }

func (t *OUIRegistration) validate(l *Ledger, height int64) error {
	if t.OUI == 0 {
		return fmt.Errorf("oui: zero OUI")
	}
	if _, ok := l.ouis[t.OUI]; ok {
		return fmt.Errorf("oui: OUI %d already registered", t.OUI)
	}
	if want := l.nextOUI; t.OUI != want {
		return fmt.Errorf("oui: OUI %d out of sequence, want %d", t.OUI, want)
	}
	return nil
}

func (t *OUIRegistration) apply(l *Ledger, height int64) {
	l.ouis[t.OUI] = &OUIRecord{OUI: t.OUI, Owner: t.Owner, Filters: append([]string(nil), t.Filters...)}
	l.nextOUI++
}

// RewardEntry is one wallet's line in a rewards transaction.
type RewardEntry struct {
	Account     string     `json:"account"`
	Gateway     string     `json:"gateway,omitempty"`
	AmountBones int64      `json:"amount_bones"`
	Kind        RewardKind `json:"kind"`
}

// RewardKind classifies what a reward paid for.
type RewardKind uint8

const (
	RewardChallenger RewardKind = iota + 1
	RewardChallengee
	RewardWitness
	RewardData
	RewardConsensus
)

var rewardNames = map[RewardKind]string{
	RewardChallenger: "poc_challenger",
	RewardChallengee: "poc_challengee",
	RewardWitness:    "poc_witness",
	RewardData:       "data_transfer",
	RewardConsensus:  "consensus",
}

func (k RewardKind) String() string {
	if n, ok := rewardNames[k]; ok {
		return n
	}
	return fmt.Sprintf("reward_kind_%d", uint8(k))
}

// Rewards mints HNT to participants for an epoch (§2.4).
type Rewards struct {
	Epoch   int64         `json:"epoch"`
	Entries []RewardEntry `json:"entries"`
}

func (t *Rewards) TxnType() TxnType { return TxnRewards }

func (t *Rewards) validate(l *Ledger, height int64) error {
	for _, e := range t.Entries {
		if e.AmountBones < 0 {
			return fmt.Errorf("rewards: negative entry for %s", e.Account)
		}
	}
	return nil
}

func (t *Rewards) apply(l *Ledger, height int64) {
	for _, e := range t.Entries {
		l.account(e.Account).HNTBones += e.AmountBones
		l.hntMintedBones += e.AmountBones
		if e.Gateway != "" {
			if h, ok := l.hotspots[e.Gateway]; ok {
				h.EarnedBones += e.AmountBones
			}
		}
	}
}

// ConsensusGroup records the miners elected to produce blocks for an
// epoch (§2.2: miners "maintain the Helium blockchain"). The study
// does not analyze consensus, but the transaction appears in real
// chains and rounds out the vocabulary.
type ConsensusGroup struct {
	Epoch   int64    `json:"epoch"`
	Members []string `json:"members"`
}

func (t *ConsensusGroup) TxnType() TxnType { return TxnConsensusGroup }

func (t *ConsensusGroup) validate(l *Ledger, height int64) error {
	if len(t.Members) == 0 {
		return fmt.Errorf("consensus_group: empty membership")
	}
	seen := make(map[string]bool, len(t.Members))
	for _, m := range t.Members {
		if m == "" || seen[m] {
			return fmt.Errorf("consensus_group: empty or duplicate member")
		}
		seen[m] = true
	}
	return nil
}

func (t *ConsensusGroup) apply(l *Ledger, height int64) {
	l.consensus = append([]string(nil), t.Members...)
}

// RoutingUpdate changes an OUI's device filter list — how a router
// owner tells hotspots which EUIs to offer it (§2.2's "filter list in
// the Helium blockchain").
type RoutingUpdate struct {
	OUI     uint32   `json:"oui"`
	Owner   string   `json:"owner"`
	Filters []string `json:"filters"`
}

func (t *RoutingUpdate) TxnType() TxnType { return TxnRoutingUpdate }

func (t *RoutingUpdate) validate(l *Ledger, height int64) error {
	rec, ok := l.ouis[t.OUI]
	if !ok {
		return fmt.Errorf("routing_update: unknown OUI %d", t.OUI)
	}
	if rec.Owner != t.Owner {
		return fmt.Errorf("routing_update: OUI %d not owned by %s", t.OUI, t.Owner)
	}
	return nil
}

func (t *RoutingUpdate) apply(l *Ledger, height int64) {
	l.ouis[t.OUI].Filters = append([]string(nil), t.Filters...)
}

// StakeValidatorBones is the validator stake: 10,000 HNT (HIP25).
const StakeValidatorBones = 10_000 * BonesPerHNT

// StakeValidator locks a validator stake (§2.2: validators were
// ratified in January 2021 and "appear as special-case miners on the
// blockchain"). The stake is deducted from the owner and held by the
// ledger until (out of scope here) unstaking.
type StakeValidator struct {
	Owner     string `json:"owner"`
	Validator string `json:"validator"` // validator node address
}

func (t *StakeValidator) TxnType() TxnType { return TxnStakeValidator }

func (t *StakeValidator) validate(l *Ledger, height int64) error {
	if t.Owner == "" || t.Validator == "" {
		return fmt.Errorf("stake_validator: missing owner or validator")
	}
	if _, ok := l.validators[t.Validator]; ok {
		return fmt.Errorf("stake_validator: %s already staked", t.Validator)
	}
	if l.account(t.Owner).HNTBones < StakeValidatorBones {
		return fmt.Errorf("stake_validator: owner %s holds %d bones, stake is %d",
			t.Owner, l.account(t.Owner).HNTBones, StakeValidatorBones)
	}
	return nil
}

func (t *StakeValidator) apply(l *Ledger, height int64) {
	l.account(t.Owner).HNTBones -= StakeValidatorBones
	l.validators[t.Validator] = t.Owner
	l.stakedBones += StakeValidatorBones
}

// DCCoinbase credits DC directly to a wallet, modelling off-chain
// funding events that the real chain records via its coinbase
// transactions (credit-card DC purchases through the Console, §5.2).
type DCCoinbase struct {
	Payee    string `json:"payee"`
	AmountDC int64  `json:"amount_dc"`
}

func (t *DCCoinbase) TxnType() TxnType { return TxnDCCoinbase }

func (t *DCCoinbase) validate(l *Ledger, height int64) error {
	if t.Payee == "" || t.AmountDC <= 0 {
		return fmt.Errorf("dc_coinbase: bad payee or amount")
	}
	return nil
}

func (t *DCCoinbase) apply(l *Ledger, height int64) {
	l.account(t.Payee).DC += t.AmountDC
}

// SecurityCoinbase credits HNT directly to a wallet, modelling the
// pre-mine / investor allocations that seed wallets with purchase
// capital.
type SecurityCoinbase struct {
	Payee       string `json:"payee"`
	AmountBones int64  `json:"amount_bones"`
}

func (t *SecurityCoinbase) TxnType() TxnType { return TxnSecurityCoinbase }

func (t *SecurityCoinbase) validate(l *Ledger, height int64) error {
	if t.Payee == "" || t.AmountBones <= 0 {
		return fmt.Errorf("security_coinbase: bad payee or amount")
	}
	return nil
}

func (t *SecurityCoinbase) apply(l *Ledger, height int64) {
	l.account(t.Payee).HNTBones += t.AmountBones
}

// scID builds a deterministic state-channel ID.
func SCID(owner string, nonce int64) string {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(nonce))
	sum := sha256.Sum256(append([]byte(owner), buf[:]...))
	return fmt.Sprintf("sc-%x", sum[:8])
}
