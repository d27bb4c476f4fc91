// Package registry implements BcWAN's gateway addressing (§4.3): the
// blockchain doubles as a DNS-like directory. Each recipient ready to
// receive messages publishes a transaction binding its blockchain address
// (@R, the hash of its public key) to its current IP address inside an
// OP_RETURN output; gateways scan blocks and resolve @R to an IP before
// opening the TCP connection of Fig. 3 step 7.
package registry

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// bindingMagic tags BcWAN directory records among arbitrary OP_RETURN
// data.
var bindingMagic = []byte("BCWAN1")

// maxNetAddrLen bounds the encoded network address.
const maxNetAddrLen = 128

// ErrBadBinding reports an undecodable directory record.
var ErrBadBinding = errors.New("registry: malformed binding record")

// ErrNotFound reports a lookup miss.
var ErrNotFound = errors.New("registry: address not found")

// ErrUntrusted reports that the address is bound but belongs to an
// ejected (below-trust-threshold) gateway, so the binding is ignored.
var ErrUntrusted = errors.New("registry: address ejected")

// Binding maps a blockchain address to a network address.
type Binding struct {
	// PubKeyHash is the recipient's @R.
	PubKeyHash [20]byte
	// NetAddr is the "host:port" the recipient listens on.
	NetAddr string
	// Height is the block that carried the (latest) record.
	Height int64
}

// EncodeBinding serializes a record for an OP_RETURN output.
func EncodeBinding(pubKeyHash [20]byte, netAddr string) ([]byte, error) {
	if len(netAddr) == 0 || len(netAddr) > maxNetAddrLen {
		return nil, fmt.Errorf("%w: address length %d", ErrBadBinding, len(netAddr))
	}
	out := make([]byte, 0, len(bindingMagic)+20+1+len(netAddr))
	out = append(out, bindingMagic...)
	out = append(out, pubKeyHash[:]...)
	out = append(out, byte(len(netAddr)))
	out = append(out, netAddr...)
	return out, nil
}

// DecodeBinding parses a record.
func DecodeBinding(data []byte) (Binding, error) {
	var b Binding
	if len(data) < len(bindingMagic)+20+1 {
		return b, fmt.Errorf("%w: %d bytes", ErrBadBinding, len(data))
	}
	if !bytes.HasPrefix(data, bindingMagic) {
		return b, fmt.Errorf("%w: bad magic", ErrBadBinding)
	}
	rest := data[len(bindingMagic):]
	copy(b.PubKeyHash[:], rest[:20])
	n := int(rest[20])
	addr := rest[21:]
	if len(addr) != n || n == 0 || n > maxNetAddrLen {
		return b, fmt.Errorf("%w: address length mismatch", ErrBadBinding)
	}
	b.NetAddr = string(addr)
	return b, nil
}

// Directory is the scanned view of all on-chain bindings. The latest
// binding (highest block) wins, supporting the paper's roaming scenario
// where "the IP address can change if the recipient gateway is moved to
// another network".
//
// Bindings are authenticated: a record for @R is only indexed when the
// carrying transaction proves control of @R — one of its inputs must push
// the public key hashing to @R in its unlock script (true for every
// wallet-signed publish, since P2PKH unlocks push <sig> <pubkey>). Without
// this check any funded adversary could hijack a victim's @R and divert
// its deliveries.
type Directory struct {
	mu      sync.RWMutex
	byHash  map[[20]byte]Binding
	ejected map[[20]byte]bool
	chain   *chain.Chain
	scanTip int64
	forged  uint64
	rescans uint64
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		byHash:  make(map[[20]byte]Binding),
		ejected: make(map[[20]byte]bool),
		scanTip: -1,
	}
}

// Attach subscribes the directory to a chain and scans all existing
// best-branch blocks ("On start-up, each node retrieves the recent blocks
// from other nodes and scans their content for foreign gateways IPs",
// §5.1). Attaching also arms reorg detection: when the chain switches to
// a better branch, the directory rescans the new best branch so bindings
// that only existed on the abandoned branch disappear.
func (d *Directory) Attach(c *chain.Chain) {
	d.mu.Lock()
	d.chain = c
	d.mu.Unlock()
	c.Subscribe(d.ScanBlock)
	for h := int64(0); h <= c.Height(); h++ {
		if b, ok := c.BlockAt(h); ok {
			d.ScanBlock(b)
		}
	}
}

// ScanBlock indexes every authenticated binding record in the block. A
// block at or below the highest height already scanned means the chain
// reorganized under us (connect notifications are strictly ascending on
// one branch); the directory then rebuilds from the current best branch.
func (d *Directory) ScanBlock(b *chain.Block) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.chain != nil && b.Header.Height <= d.scanTip {
		d.rescanLocked()
		return
	}
	d.scanBlockLocked(b)
	if b.Header.Height > d.scanTip {
		d.scanTip = b.Header.Height
	}
}

func (d *Directory) scanBlockLocked(b *chain.Block) {
	for _, tx := range b.Txs {
		for _, out := range tx.Outputs {
			payload, err := script.ExtractNullData(out.Lock)
			if err != nil {
				continue
			}
			binding, err := DecodeBinding(payload)
			if err != nil {
				continue
			}
			if !txAuthenticates(tx, binding.PubKeyHash) {
				d.forged++
				continue
			}
			binding.Height = b.Header.Height
			prev, exists := d.byHash[binding.PubKeyHash]
			if !exists || binding.Height >= prev.Height {
				d.byHash[binding.PubKeyHash] = binding
			}
		}
	}
}

// rescanLocked rebuilds the directory from the attached chain's current
// best branch. Bindings whose blocks were pruned away are lost — pruned
// nodes should re-publish after deep reorgs, as the paper's roaming flow
// already requires.
func (d *Directory) rescanLocked() {
	d.byHash = make(map[[20]byte]Binding)
	tip := d.chain.Height()
	for h := int64(0); h <= tip; h++ {
		if b, ok := d.chain.BlockAt(h); ok {
			d.scanBlockLocked(b)
		}
	}
	d.scanTip = tip
	d.rescans++
}

// txAuthenticates reports whether any input of tx pushes a public key
// whose Hash160 equals hash — proof that the publisher controls @R.
func txAuthenticates(tx *chain.Tx, hash [20]byte) bool {
	for _, in := range tx.Inputs {
		ins, err := script.Parse(in.Unlock)
		if err != nil {
			continue
		}
		for _, instr := range ins {
			if len(instr.Data) == 0 {
				continue
			}
			if bccrypto.Hash160(instr.Data) == hash {
				return true
			}
		}
	}
	return false
}

// Lookup resolves a blockchain address to its latest network address.
// Ejected addresses resolve to ErrUntrusted until reinstated.
func (d *Directory) Lookup(pubKeyHash [20]byte) (Binding, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.ejected[pubKeyHash] {
		return Binding{}, ErrUntrusted
	}
	b, ok := d.byHash[pubKeyHash]
	if !ok {
		return Binding{}, ErrNotFound
	}
	return b, nil
}

// Eject marks an address as untrusted (reputation below threshold): its
// current and future bindings are ignored from then on.
func (d *Directory) Eject(pubKeyHash [20]byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ejected[pubKeyHash] = true
}

// Len reports the number of known, non-ejected bindings.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for h := range d.byHash {
		if !d.ejected[h] {
			n++
		}
	}
	return n
}

// ForgedRejected reports how many binding records were dropped because
// the carrying transaction could not prove control of the bound address.
func (d *Directory) ForgedRejected() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.forged
}

// Rescans reports how many reorg-induced full rescans have run.
func (d *Directory) Rescans() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rescans
}

// BuildPublish builds the transaction announcing the wallet's own binding.
func BuildPublish(w *wallet.Wallet, utxo *chain.UTXOSet, netAddr string, fee uint64) (*chain.Tx, error) {
	payload, err := EncodeBinding(w.PubKeyHash(), netAddr)
	if err != nil {
		return nil, err
	}
	tx, err := w.BuildDataPublish(utxo, payload, fee)
	if err != nil {
		return nil, fmt.Errorf("registry publish: %w", err)
	}
	return tx, nil
}
