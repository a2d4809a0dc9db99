package chain

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Serialization: blocks are encoded as JSON lines (one block per
// line), each transaction wrapped in a {"type": ..., "txn": ...}
// envelope so the concrete payload type survives the round trip. The
// format is what cmd/heliumsim writes and cmd/chainalyze reads.

type txnEnvelope struct {
	Type TxnType         `json:"type"`
	Txn  json.RawMessage `json:"txn"`
}

type blockWire struct {
	Height    int64         `json:"height"`
	Timestamp time.Time     `json:"timestamp"`
	PrevHash  string        `json:"prev_hash"`
	Hash      string        `json:"hash"`
	Txns      []txnEnvelope `json:"txns"`
}

// MarshalJSON implements json.Marshaler for Block, wrapping each txn
// in a type envelope.
func (b *Block) MarshalJSON() ([]byte, error) {
	w := blockWire{
		Height:    b.Height,
		Timestamp: b.Timestamp,
		PrevHash:  b.PrevHash,
		Hash:      b.Hash,
		Txns:      make([]txnEnvelope, len(b.Txns)),
	}
	for i, t := range b.Txns {
		raw, err := json.Marshal(t)
		if err != nil {
			return nil, fmt.Errorf("chain: marshal txn %d: %w", i, err)
		}
		w.Txns[i] = txnEnvelope{Type: t.TxnType(), Txn: raw}
	}
	return json.Marshal(w)
}

// newTxn allocates the concrete struct for a type tag.
func newTxn(tt TxnType) (Txn, error) {
	switch tt {
	case TxnAddGateway:
		return &AddGateway{}, nil
	case TxnAssertLocation:
		return &AssertLocation{}, nil
	case TxnTransferHotspot:
		return &TransferHotspot{}, nil
	case TxnPoCRequest:
		return &PoCRequest{}, nil
	case TxnPoCReceipt:
		return &PoCReceipt{}, nil
	case TxnStateChannelOpen:
		return &StateChannelOpen{}, nil
	case TxnStateChannelClose:
		return &StateChannelClose{}, nil
	case TxnPayment:
		return &Payment{}, nil
	case TxnTokenBurn:
		return &TokenBurn{}, nil
	case TxnOUI:
		return &OUIRegistration{}, nil
	case TxnRewards:
		return &Rewards{}, nil
	case TxnConsensusGroup:
		return &ConsensusGroup{}, nil
	case TxnRoutingUpdate:
		return &RoutingUpdate{}, nil
	case TxnStakeValidator:
		return &StakeValidator{}, nil
	case TxnDCCoinbase:
		return &DCCoinbase{}, nil
	case TxnSecurityCoinbase:
		return &SecurityCoinbase{}, nil
	default:
		return nil, fmt.Errorf("chain: cannot decode txn type %d (%s)", uint8(tt), tt)
	}
}

// UnmarshalJSON implements json.Unmarshaler for Block.
func (b *Block) UnmarshalJSON(data []byte) error {
	var w blockWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	// A whole-value assignment, so no kept IDs of a previous block
	// survive into this one.
	*b = Block{Height: w.Height, Timestamp: w.Timestamp, PrevHash: w.PrevHash, Hash: w.Hash, Txns: make([]Txn, len(w.Txns))}
	for i, env := range w.Txns {
		t, err := newTxn(env.Type)
		if err != nil {
			return fmt.Errorf("chain: block %d txn %d: %w", w.Height, i, err)
		}
		if err := json.Unmarshal(env.Txn, t); err != nil {
			return fmt.Errorf("chain: block %d txn %d payload: %w", w.Height, i, err)
		}
		b.Txns[i] = t
	}
	return nil
}

// WriteTo streams the chain as JSON lines: a header line with the
// genesis time, then one line per block.
func (c *Chain) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	blocks := c.snapshot()
	var n int64
	hdr, err := json.Marshal(struct {
		Genesis time.Time `json:"genesis"`
		Blocks  int       `json:"blocks"`
	}{c.Genesis, len(blocks)})
	if err != nil {
		return 0, err
	}
	m, err := bw.Write(append(hdr, '\n'))
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, b := range blocks {
		line, err := json.Marshal(b)
		if err != nil {
			return n, err
		}
		m, err = bw.Write(append(line, '\n'))
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadChain reconstructs a chain from the JSON-lines format, replaying
// every block through a fresh ledger so the resulting state matches
// the writer's.
func ReadChain(r io.Reader) (*Chain, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("chain: empty input")
	}
	var hdr struct {
		Genesis time.Time `json:"genesis"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("chain: bad header: %w", err)
	}
	c := NewChain(hdr.Genesis)
	for sc.Scan() {
		var b Block
		if err := json.Unmarshal(sc.Bytes(), &b); err != nil {
			return nil, fmt.Errorf("chain: bad block line: %w", err)
		}
		if _, err := c.AppendBlock(b.Height, b.Txns); err != nil {
			return nil, fmt.Errorf("chain: replay: %w", err)
		}
	}
	return c, sc.Err()
}
