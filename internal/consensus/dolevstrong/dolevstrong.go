// Package dolevstrong implements the Dolev-Strong authenticated broadcast
// protocol: with message signatures, a designated sender broadcasts a value
// and after t+1 rounds every honest node decides the same value, for any
// number of faults t < N. This is the classic Byzantine generals protocol
// with digital signatures the paper's synchronous consensus phase relies on
// (Section 3: "consistency ... for an arbitrary number b < N of malicious
// nodes").
//
// Participants are written against consensus.Transport, so one instance
// runs identically over the simulated lock-step network and over a
// transport.Link into a real TCP cluster; chain signatures are blob
// signatures over a fixed binary encoding (consensus.ChainMsg), which is
// what makes them verify across transports.
//
// Protocol (lock-step rounds):
//
//	round 0:  the sender signs its value and broadcasts (value, [sig_s]).
//	round r:  a node that receives a value carried by a chain of r distinct
//	          valid signatures starting with the sender's — and has
//	          extracted fewer than two distinct values so far — extracts
//	          it, appends its own signature, and re-broadcasts.
//	round t+1: a node decides the unique extracted value, or the default
//	          value if zero or more than one value was extracted (sender
//	          provably faulty).
package dolevstrong

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"codedsm/internal/consensus"
	"codedsm/internal/transport"
)

// msgKind tags Dolev-Strong messages on the wire.
const msgKind = "dolev-strong"

// Config configures one protocol instance at one node.
type Config struct {
	// Transport carries this node's broadcasts and blob signatures. Both
	// consensus.NewNetTransport (simulated network) and a transport.Link
	// (one real process per node) satisfy it.
	Transport consensus.Transport
	// Sender is the designated broadcaster for this slot.
	Sender transport.NodeID
	// Slot disambiguates concurrent instances (signature domain).
	Slot uint64
	// MaxFaults is t; the protocol runs t+1 relay rounds.
	MaxFaults int
	// Value is the sender's proposal (ignored at other nodes).
	Value []byte
	// Default is decided when the sender is detected faulty.
	Default []byte
}

// Node is one participant. It implements consensus.Node.
type Node struct {
	cfg       Config
	tr        consensus.Transport
	id        transport.NodeID
	tick      int
	extracted map[string][]byte // key: string(value)
	relayed   map[string]bool
	// verified holds the chain signatures this node has checked and found
	// valid: VerifyBlob is a pure function of the key, so a signature
	// relayed again in another chain is not checked again.
	verified map[verifiedSig]bool
	decided  []byte
	done     bool
}

// verifiedSig names one successful signature check: the signer, the
// signing context, the SHA-256 of the signed value and the signature.
type verifiedSig struct {
	signer  uint64
	context string
	value   [sha256.Size]byte
	sig     string
}

var _ consensus.Node = (*Node)(nil)

// New creates a protocol participant.
func New(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("dolevstrong: nil transport")
	}
	if cfg.MaxFaults < 0 || cfg.MaxFaults >= cfg.Transport.N() {
		return nil, fmt.Errorf("dolevstrong: MaxFaults %d out of range [0,%d)", cfg.MaxFaults, cfg.Transport.N())
	}
	if int(cfg.Sender) < 0 || int(cfg.Sender) >= cfg.Transport.N() {
		return nil, fmt.Errorf("dolevstrong: sender %d out of range [0,%d)", cfg.Sender, cfg.Transport.N())
	}
	return &Node{
		cfg:       cfg,
		tr:        cfg.Transport,
		id:        cfg.Transport.Self(),
		extracted: make(map[string][]byte),
		relayed:   make(map[string]bool),
		verified:  make(map[verifiedSig]bool),
	}, nil
}

// signContext is the domain-separated context for chain signatures.
func signContext(slot uint64) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], slot)
	return "ds-chain:" + string(b[:])
}

// Tick implements consensus.Node.
func (n *Node) Tick(inbox []transport.Message) error {
	defer func() { n.tick++ }()
	if n.tick == 0 {
		if n.id == n.cfg.Sender {
			n.extract(n.cfg.Value)
			if err := n.relay(n.cfg.Value, nil, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if n.done {
		return nil
	}
	round := n.tick // messages processed at tick r were sent at r-1
	for _, m := range inbox {
		if m.Kind != msgKind {
			continue
		}
		cm, err := consensus.DecodeChainMsg(m.Payload)
		if err != nil {
			continue // malformed: Byzantine garbage
		}
		if cm.Slot != n.cfg.Slot {
			continue
		}
		if _, ok := n.extracted[string(cm.Value)]; ok {
			// Extracting a value twice does nothing, so its chain is not
			// worth checking.
			continue
		}
		if !n.validChain(cm, round) {
			continue
		}
		if n.extract(cm.Value) && len(n.extracted) <= 2 && round <= n.cfg.MaxFaults {
			if err := n.relay(cm.Value, cm.Signers, cm.Sigs); err != nil {
				return err
			}
		}
	}
	if round >= n.cfg.MaxFaults+1 {
		if len(n.extracted) == 1 {
			//csmlint:allow detmap(single-entry map by the len==1 guard; iteration order cannot matter)
			for _, v := range n.extracted {
				n.decided = v
			}
		} else {
			n.decided = n.cfg.Default
		}
		if n.decided == nil {
			n.decided = []byte{}
		}
		n.done = true
	}
	return nil
}

// extract records a value; it reports whether the value was new.
func (n *Node) extract(value []byte) bool {
	key := string(value)
	if _, ok := n.extracted[key]; ok {
		return false
	}
	n.extracted[key] = append([]byte(nil), value...)
	return true
}

// validChain checks a signature chain received in the given round: at least
// `round` distinct valid signers, the first being the designated sender. A
// signature this node has already found valid is not checked again.
func (n *Node) validChain(cm consensus.ChainMsg, round int) bool {
	if len(cm.Signers) != len(cm.Sigs) || len(cm.Signers) < round {
		return false
	}
	if len(cm.Signers) == 0 || transport.NodeID(cm.Signers[0]) != n.cfg.Sender {
		return false
	}
	seen := make(map[uint64]bool, len(cm.Signers))
	key := verifiedSig{context: signContext(cm.Slot), value: sha256.Sum256(cm.Value)}
	for i, signer := range cm.Signers {
		if seen[signer] {
			return false
		}
		seen[signer] = true
		key.signer, key.sig = signer, string(cm.Sigs[i])
		if n.verified[key] {
			continue
		}
		if !n.tr.VerifyBlob(transport.NodeID(signer), key.context, cm.Value, cm.Sigs[i]) {
			return false
		}
		n.verified[key] = true
	}
	return true
}

// relay appends this node's signature to the chain and broadcasts.
func (n *Node) relay(value []byte, signers []uint64, sigs [][]byte) error {
	key := string(value)
	if n.relayed[key] {
		return nil
	}
	n.relayed[key] = true
	alreadySigned := false
	for _, s := range signers {
		if transport.NodeID(s) == n.id {
			alreadySigned = true
		}
	}
	outSigners := append([]uint64{}, signers...)
	outSigs := make([][]byte, len(sigs))
	copy(outSigs, sigs)
	if !alreadySigned {
		outSigners = append(outSigners, uint64(n.id))
		outSigs = append(outSigs, n.tr.SignBlob(signContext(n.cfg.Slot), value))
	}
	payload, err := consensus.AppendChainMsg(nil, consensus.ChainMsg{
		Slot: n.cfg.Slot, Value: value, Signers: outSigners, Sigs: outSigs,
	})
	if err != nil {
		return fmt.Errorf("dolevstrong: encode: %w", err)
	}
	return n.tr.Broadcast(msgKind, payload)
}

// Decided implements consensus.Node.
func (n *Node) Decided() ([]byte, bool) {
	if !n.done {
		return nil, false
	}
	return n.decided, true
}

// Rounds returns the number of lock-step rounds a full instance takes:
// t+2 ticks (one send round plus t+1 relay/decide rounds).
func Rounds(maxFaults int) int { return maxFaults + 2 }
