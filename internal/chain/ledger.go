package chain

import (
	"sort"
	"sync"

	"peoplesnet/internal/h3lite"
)

// LocationEvent is one entry in a hotspot's location history.
type LocationEvent struct {
	Block int64       `json:"block"`
	Cell  h3lite.Cell `json:"cell"`
}

// OwnerEvent is one entry in a hotspot's ownership history.
type OwnerEvent struct {
	Block int64  `json:"block"`
	Owner string `json:"owner"`
}

// Hotspot is the ledger's record of one gateway.
type Hotspot struct {
	Address string `json:"address"`
	Owner   string `json:"owner"`
	Maker   string `json:"maker,omitempty"`

	AddedBlock int64       `json:"added_block"`
	Location   h3lite.Cell `json:"location"`

	AssertCount   int `json:"assert_count"`
	TransferCount int `json:"transfer_count"`

	LocationHistory []LocationEvent `json:"location_history,omitempty"`
	OwnerHistory    []OwnerEvent    `json:"owner_history,omitempty"`

	LastChallengeBlock int64 `json:"last_challenge_block,omitempty"`
	LastPoCBlock       int64 `json:"last_poc_block,omitempty"`
	ValidWitnessCount  int64 `json:"valid_witness_count,omitempty"`
	DataPackets        int64 `json:"data_packets,omitempty"`
	EarnedBones        int64 `json:"earned_bones,omitempty"`
}

// Account is a wallet's balance state.
type Account struct {
	Address  string `json:"address"`
	HNTBones int64  `json:"hnt_bones"`
	DC       int64  `json:"dc"`
	Hotspots int    `json:"hotspots"`
}

// OUIRecord is a registered router identifier.
type OUIRecord struct {
	OUI     uint32   `json:"oui"`
	Owner   string   `json:"owner"`
	Filters []string `json:"filters,omitempty"`
}

// channelState is an open state channel's ledger state.
type channelState struct {
	owner       string
	oui         uint32
	stakedDC    int64
	expireBlock int64
}

// Ledger is the chain state machine. All exported methods are safe for
// concurrent use.
type Ledger struct {
	mu sync.RWMutex

	hotspots map[string]*Hotspot
	accounts map[string]*Account
	ouis     map[uint32]*OUIRecord
	channels map[string]*channelState
	nextOUI  uint32

	validators map[string]string // validator address → staking owner
	consensus  []string          // current consensus group members

	dcBurned       int64
	hntMintedBones int64
	hntBurnedBones int64
	stakedBones    int64

	pocIntervalBlocks int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		hotspots:          make(map[string]*Hotspot),
		accounts:          make(map[string]*Account),
		ouis:              make(map[uint32]*OUIRecord),
		channels:          make(map[string]*channelState),
		validators:        make(map[string]string),
		nextOUI:           1,
		pocIntervalBlocks: PoCChallengeIntervalBlocks,
	}
}

// SetPoCInterval overrides the challenge interval. No program in this
// module calls it: every ledger validates with
// PoCChallengeIntervalBlocks. It stays only because perfbench's follow
// workload (a module of its own) still sets it, to the value that is
// now the default; it goes with perfbench's next change.
func (l *Ledger) SetPoCInterval(blocks int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if blocks > 0 {
		l.pocIntervalBlocks = blocks
	}
}

// account returns (creating if needed) the account record. Caller
// must hold l.mu.
func (l *Ledger) account(addr string) *Account {
	a, ok := l.accounts[addr]
	if !ok {
		a = &Account{Address: addr}
		l.accounts[addr] = a
	}
	return a
}

// ApplyTxn validates and applies a single transaction at the given
// height, returning a validation error without side effects on
// failure.
func (l *Ledger) ApplyTxn(t Txn, height int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applyLocked(t, height)
}

func (l *Ledger) applyLocked(t Txn, height int64) error {
	if err := t.validate(l, height); err != nil {
		return err
	}
	t.apply(l, height)
	return nil
}

// CreditHNT mints bones directly into an account, used to seed
// simulated wallets with purchase capital.
func (l *Ledger) CreditHNT(addr string, bones int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.account(addr).HNTBones += bones
}

// CreditDC adds DC directly (credit-card purchases through the
// Console happen off chain; §5.2).
func (l *Ledger) CreditDC(addr string, dc int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.account(addr).DC += dc
}

// HotspotCount returns the number of registered hotspots.
func (l *Ledger) HotspotCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.hotspots)
}

// GetHotspot returns a copy of the hotspot record, or false.
func (l *Ledger) GetHotspot(addr string) (Hotspot, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	h, ok := l.hotspots[addr]
	if !ok {
		return Hotspot{}, false
	}
	cp := *h
	cp.LocationHistory = append([]LocationEvent(nil), h.LocationHistory...)
	cp.OwnerHistory = append([]OwnerEvent(nil), h.OwnerHistory...)
	return cp, true
}

// EachHotspot calls fn on every hotspot record, in no particular
// order, under the ledger's read lock. The records are the ledger's
// own: fn must not modify them, keep them past the call, or call back
// into the ledger.
func (l *Ledger) EachHotspot(fn func(*Hotspot)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, h := range l.hotspots {
		fn(h)
	}
}

// GetAccount returns a copy of the account record (zero value if the
// address has never transacted).
func (l *Ledger) GetAccount(addr string) Account {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if a, ok := l.accounts[addr]; ok {
		return *a
	}
	return Account{Address: addr}
}

// Accounts returns copies of all accounts, sorted by address.
func (l *Ledger) Accounts() []Account {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Account, 0, len(l.accounts))
	for _, a := range l.accounts {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Address < out[j].Address })
	return out
}

// OUIs returns all registered OUIs sorted by number.
func (l *Ledger) OUIs() []OUIRecord {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]OUIRecord, 0, len(l.ouis))
	for _, o := range l.ouis {
		cp := *o
		cp.Filters = append([]string(nil), o.Filters...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OUI < out[j].OUI })
	return out
}

// Totals reports aggregate monetary counters.
type Totals struct {
	DCBurned       int64
	HNTMintedBones int64
	HNTBurnedBones int64
	StakedBones    int64
}

// MoneyTotals returns the aggregate mint/burn/stake counters.
func (l *Ledger) MoneyTotals() Totals {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return Totals{
		DCBurned:       l.dcBurned,
		HNTMintedBones: l.hntMintedBones,
		HNTBurnedBones: l.hntBurnedBones,
		StakedBones:    l.stakedBones,
	}
}
