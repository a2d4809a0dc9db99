package chain

// Deterministic binary snapshot of the full Ledger state — the payload
// the ETL store's ledger checkpoint persists so a restart replays only
// the unsealed tail instead of the whole chain.
//
// Determinism contract: the same ledger state always encodes to the
// same bytes (map keys are sorted), so two replays can be compared for
// equality by comparing snapshots — the bit-identity check the store's
// checkpoint tests rely on.
//
// Stability contract: the version byte leads the encoding; field order
// for version 2 is frozen. Version 1 also carried a never-read map of
// DC per hotspot; it is refused, not decoded, and the store falls back
// to a full replay. LedgerFromSnapshot never panics on
// arbitrary input (FuzzDecodeCheckpoint drives it through the store's
// checkpoint frame) — counts are bounded against remaining input
// before allocation.

import (
	"fmt"
	"sort"

	"peoplesnet/internal/h3lite"
	"peoplesnet/internal/wire"
)

// ledgerSnapshotVersion is the current snapshot encoding version.
const ledgerSnapshotVersion = 2

// Snapshot serializes the complete ledger state. The result is
// deterministic: equal states yield equal bytes.
func (l *Ledger) Snapshot() []byte {
	l.mu.RLock()
	defer l.mu.RUnlock()

	var w wire.Writer
	w.U8(ledgerSnapshotVersion)

	hsKeys := sortedKeys(l.hotspots)
	w.Uvarint(uint64(len(hsKeys)))
	for _, k := range hsKeys {
		h := l.hotspots[k]
		w.Str(h.Address)
		w.Str(h.Owner)
		w.Str(h.Maker)
		w.Varint(h.AddedBlock)
		w.Uvarint(uint64(h.Location))
		w.Varint(int64(h.AssertCount))
		w.Varint(int64(h.TransferCount))
		w.Uvarint(uint64(len(h.LocationHistory)))
		for _, ev := range h.LocationHistory {
			w.Varint(ev.Block)
			w.Uvarint(uint64(ev.Cell))
		}
		w.Uvarint(uint64(len(h.OwnerHistory)))
		for _, ev := range h.OwnerHistory {
			w.Varint(ev.Block)
			w.Str(ev.Owner)
		}
		w.Varint(h.LastChallengeBlock)
		w.Varint(h.LastPoCBlock)
		w.Varint(h.ValidWitnessCount)
		w.Varint(h.DataPackets)
		w.Varint(h.EarnedBones)
		w.Bool(h.Online)
	}

	acctKeys := sortedKeys(l.accounts)
	w.Uvarint(uint64(len(acctKeys)))
	for _, k := range acctKeys {
		a := l.accounts[k]
		w.Str(a.Address)
		w.Varint(a.HNTBones)
		w.Varint(a.DC)
		w.Varint(int64(a.Hotspots))
	}

	ouiKeys := make([]uint32, 0, len(l.ouis))
	for k := range l.ouis {
		ouiKeys = append(ouiKeys, k)
	}
	sort.Slice(ouiKeys, func(i, j int) bool { return ouiKeys[i] < ouiKeys[j] })
	w.Uvarint(uint64(len(ouiKeys)))
	for _, k := range ouiKeys {
		o := l.ouis[k]
		w.Uvarint(uint64(o.OUI))
		w.Str(o.Owner)
		w.Strs(o.Filters)
	}

	chKeys := sortedKeys(l.channels)
	w.Uvarint(uint64(len(chKeys)))
	for _, k := range chKeys {
		ch := l.channels[k]
		w.Str(k)
		w.Str(ch.owner)
		w.Uvarint(uint64(ch.oui))
		w.Varint(ch.stakedDC)
		w.Varint(ch.expireBlock)
	}
	w.Uvarint(uint64(l.nextOUI))

	valKeys := sortedKeys(l.validators)
	w.Uvarint(uint64(len(valKeys)))
	for _, k := range valKeys {
		w.Str(k)
		w.Str(l.validators[k])
	}
	w.Strs(l.consensus)

	w.Varint(l.dcBurned)
	w.Varint(l.hntMintedBones)
	w.Varint(l.hntBurnedBones)
	w.Varint(l.stakedBones)
	w.F64(l.oracleUSDPerHNT)
	w.Varint(l.pocIntervalBlocks)
	return w.Buf
}

// LedgerFromSnapshot reconstructs a ledger from Snapshot bytes. It
// returns an error — never panics — on truncated or corrupted input.
func LedgerFromSnapshot(data []byte) (*Ledger, error) {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != ledgerSnapshotVersion {
		return nil, fmt.Errorf("chain: unknown ledger snapshot version %d", v)
	}
	l := NewLedger()

	for i, n := 0, r.Count(8); i < n && r.Err() == nil; i++ {
		h := &Hotspot{
			Address:       r.Str(),
			Owner:         r.Str(),
			Maker:         r.Str(),
			AddedBlock:    r.Varint(),
			Location:      h3lite.Cell(r.Uvarint()),
			AssertCount:   int(r.Varint()),
			TransferCount: int(r.Varint()),
		}
		for j, m := 0, r.Count(2); j < m && r.Err() == nil; j++ {
			h.LocationHistory = append(h.LocationHistory, LocationEvent{Block: r.Varint(), Cell: h3lite.Cell(r.Uvarint())})
		}
		for j, m := 0, r.Count(2); j < m && r.Err() == nil; j++ {
			h.OwnerHistory = append(h.OwnerHistory, OwnerEvent{Block: r.Varint(), Owner: r.Str()})
		}
		h.LastChallengeBlock = r.Varint()
		h.LastPoCBlock = r.Varint()
		h.ValidWitnessCount = r.Varint()
		h.DataPackets = r.Varint()
		h.EarnedBones = r.Varint()
		h.Online = r.Bool()
		if r.Err() == nil {
			l.hotspots[h.Address] = h
		}
	}

	for i, n := 0, r.Count(4); i < n && r.Err() == nil; i++ {
		a := &Account{
			Address:  r.Str(),
			HNTBones: r.Varint(),
			DC:       r.Varint(),
			Hotspots: int(r.Varint()),
		}
		if r.Err() == nil {
			l.accounts[a.Address] = a
		}
	}

	for i, n := 0, r.Count(3); i < n && r.Err() == nil; i++ {
		o := &OUIRecord{OUI: uint32(r.Uvarint()), Owner: r.Str(), Filters: r.Strs()}
		if r.Err() == nil {
			l.ouis[o.OUI] = o
		}
	}

	for i, n := 0, r.Count(5); i < n && r.Err() == nil; i++ {
		id := r.Str()
		ch := &channelState{owner: r.Str(), oui: uint32(r.Uvarint()), stakedDC: r.Varint(), expireBlock: r.Varint()}
		if r.Err() == nil {
			l.channels[id] = ch
		}
	}
	l.nextOUI = uint32(r.Uvarint())

	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		k := r.Str()
		l.validators[k] = r.Str()
	}
	l.consensus = r.Strs()

	l.dcBurned = r.Varint()
	l.hntMintedBones = r.Varint()
	l.hntBurnedBones = r.Varint()
	l.stakedBones = r.Varint()
	l.oracleUSDPerHNT = r.F64()
	l.pocIntervalBlocks = r.Varint()
	if r.Err() != nil {
		return nil, fmt.Errorf("chain: ledger snapshot: %w", r.Err())
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("chain: ledger snapshot: %d trailing bytes", r.Remaining())
	}
	return l, nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
