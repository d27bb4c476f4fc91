package daemon

import (
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/p2p"
)

// This file is the daemon side of the inventory/compact-block relay
// (DESIGN.md §12). Transactions and snapshot commitments travel as inv
// announcements resolved by getdata; a freshly mined block travels as a
// BIP152-style sketch, reconstructed from the receiver's mempool with a
// getblocktxn/blocktxn round trip for the misses and a full-block
// getdata as the last rung of the ladder. Catch-up blocks are fetched by
// the sync machine's tail getdata (sync.go) and arrive through the same
// block handler.

// compactTxnTimeout returns how long a reconstruction waits for a
// blocktxn response before falling back to the full block.
func (n *Node) compactTxnTimeout() time.Duration {
	if n.cfg.RelayRequestTimeout > 0 {
		return n.cfg.RelayRequestTimeout
	}
	return 500 * time.Millisecond
}

// pendingCompact is one sketch waiting for its getblocktxn round trip.
type pendingCompact struct {
	cb      *chain.CompactBlock
	partial []*chain.Tx // nil at each index the blocktxn must fill
	from    string      // the peer that pushed the sketch
	timer   *time.Timer
}

// relayHave reports objects the node already holds outside the relay's
// own store, so announcements for them are not requested.
func (n *Node) relayHave(kind string, id p2p.ObjectID) bool {
	switch kind {
	case "tx":
		return n.pool.Contains(chain.Hash(id))
	case "block":
		_, ok := n.chain.BlockByID(chain.Hash(id))
		return ok
	case p2p.MsgTypeSnapCommit:
		_, ok := n.sync.cachedCommit(id)
		return ok
	}
	return false
}

// relayFetch re-serializes objects the relay's bounded store has
// evicted, so old getdata requests can still be answered.
func (n *Node) relayFetch(kind string, id p2p.ObjectID) ([]byte, bool) {
	switch kind {
	case "tx":
		if tx, ok := n.pool.Get(chain.Hash(id)); ok {
			return tx.Serialize(), true
		}
	case "block":
		// Pruned stubs keep their ID in the index but have no body left
		// to serve.
		if b, ok := n.chain.BlockByID(chain.Hash(id)); ok && len(b.Txs) > 0 {
			return b.Serialize(), true
		}
	case p2p.MsgTypeSnapCommit:
		return n.sync.cachedCommit(id)
	}
	return nil, false
}

// onRelayTx consumes a transaction body delivered by the relay.
func (n *Node) onRelayTx(from string, payload []byte) (p2p.ObjectID, bool) {
	tx, err := chain.DeserializeTx(payload)
	if err != nil {
		n.logf("relayed tx undecodable: %v", err)
		n.misbehave(from, "undecodable relayed tx")
		return p2p.ObjectID{}, false
	}
	n.admitTx(tx)
	// Relay onward regardless of admission: a transaction parked here as
	// an orphan, or refused as a first-seen conflict, may be admissible
	// at a peer, and peers make their own admission decisions.
	return p2p.ObjectID(tx.ID()), true
}

// onRelayBlock consumes a full block body delivered by the relay — the
// catch-up path and the last rung of the compact fallback ladder.
func (n *Node) onRelayBlock(from string, payload []byte) (p2p.ObjectID, bool) {
	b, err := chain.DeserializeBlock(payload)
	if err != nil {
		n.logf("relayed block undecodable: %v", err)
		n.misbehave(from, "undecodable relayed block")
		return p2p.ObjectID{}, false
	}
	id := b.ID()
	n.clearPendingCompact(id) // a full body supersedes any sketch round trip
	n.acceptBlock(b, from)
	return p2p.ObjectID(id), true
}

// broadcastTx hands a transaction admitted locally (Submit or
// sendrawtransaction) to the relay.
func (n *Node) broadcastTx(tx *chain.Tx) {
	n.notifyLedger()
	n.relay.Announce("tx", p2p.ObjectID(tx.ID()), tx.Serialize())
}

// broadcastBlock propagates a freshly mined block as a compact sketch.
// Catch-up blocks are fetched by the sync machine's tail getdata instead.
func (n *Node) broadcastBlock(b *chain.Block) {
	n.relay.Put("block", p2p.ObjectID(b.ID()), b.Serialize())
	n.sendCompact(b, "")
}

// sendCompact pushes the sketch of b to every peer not yet known to
// hold the block, skipping the peer it came from.
func (n *Node) sendCompact(b *chain.Block, skip string) {
	id := p2p.ObjectID(b.ID())
	wire := chain.NewCompactBlock(b).Serialize()
	for _, addr := range n.gossip.Peers() {
		if addr == skip || n.relay.Known(addr, "block", id) {
			continue
		}
		if n.gossip.SendTo(addr, "cmpctblock", wire) {
			n.relay.MarkKnown(addr, "block", id)
			n.metrics.cmpctSent.Inc()
		}
	}
}

// onCompactBlock receives a sketch and climbs the reconstruction
// ladder: mempool resolution, then a getblocktxn round trip, then the
// full block.
func (n *Node) onCompactBlock(from string, msg p2p.Message) {
	cb, err := chain.DeserializeCompactBlock(msg.Payload)
	if err != nil {
		n.logf("compact block undecodable: %v", err)
		n.misbehave(from, "undecodable compact block")
		return
	}
	n.metrics.cmpctReceived.Inc()
	id := cb.BlockID()
	n.relay.MarkKnown(from, "block", p2p.ObjectID(id))

	// Already have the body, or a round trip for it is in flight.
	if n.relayHave("block", p2p.ObjectID(id)) || n.relay.Has("block", p2p.ObjectID(id)) {
		return
	}
	n.mu.Lock()
	_, inFlight := n.pendingCmpct[id]
	n.mu.Unlock()
	if inFlight {
		return
	}

	block, partial, missing, err := cb.Reconstruct(n.pool.GetByShort)
	switch {
	case err != nil:
		// Malformed sketch or merkle mismatch: the sketch is useless,
		// fetch the full block.
		n.metrics.cmpctFullFallbacks.Inc()
		n.relay.Request("block", p2p.ObjectID(id), from)
	case block != nil:
		n.metrics.cmpctHits.Inc()
		n.completeCompact(block, from)
	default:
		pc := &pendingCompact{cb: cb, partial: partial, from: from}
		pc.timer = time.AfterFunc(n.compactTxnTimeout(), func() { n.compactTimeout(id) })
		n.mu.Lock()
		n.pendingCmpct[id] = pc
		n.mu.Unlock()
		n.metrics.cmpctTxnRequests.Inc()
		if !n.gossip.SendTo(from, "getblocktxn", chain.EncodeGetBlockTxn(id, missing)) {
			// Peer gone or queue full: skip straight to the last rung.
			n.compactTimeout(id)
		}
	}
}

// onGetBlockTxn serves the transactions a reconstructing peer is
// missing, by absolute index.
func (n *Node) onGetBlockTxn(from string, msg p2p.Message) {
	id, indexes, err := chain.DecodeGetBlockTxn(msg.Payload)
	if err != nil {
		n.misbehave(from, "undecodable getblocktxn")
		return
	}
	b, ok := n.chain.BlockByID(chain.Hash(id))
	if !ok {
		// Not in the index (evicted or never accepted); the peer's
		// timeout will escalate to a full-block request elsewhere.
		return
	}
	fills := make([]chain.PrefilledTx, 0, len(indexes))
	for _, idx := range indexes {
		if int(idx) < len(b.Txs) {
			fills = append(fills, chain.PrefilledTx{Index: idx, Tx: b.Txs[idx]})
		}
	}
	if n.gossip.SendTo(from, "blocktxn", chain.EncodeBlockTxn(id, fills)) {
		n.metrics.cmpctTxnServed.Inc()
	}
}

// onBlockTxn completes a pending reconstruction with the transactions
// the sketch's sender shipped back.
func (n *Node) onBlockTxn(from string, msg p2p.Message) {
	id, fills, err := chain.DecodeBlockTxn(msg.Payload)
	if err != nil {
		n.misbehave(from, "undecodable blocktxn")
		return
	}
	n.mu.Lock()
	pc := n.pendingCmpct[id]
	if pc != nil {
		pc.timer.Stop()
		delete(n.pendingCmpct, id)
	}
	n.mu.Unlock()
	if pc == nil {
		return
	}
	block, err := pc.cb.Assemble(pc.partial, fills)
	if err != nil {
		// Wrong or incomplete fills (short-id collision, lying peer):
		// last rung, fetch the full block.
		n.logf("compact assemble %s: %v", id, err)
		n.metrics.cmpctFullFallbacks.Inc()
		n.relay.Request("block", p2p.ObjectID(id), pc.from)
		return
	}
	n.completeCompact(block, from)
}

// compactTimeout fires when a blocktxn response never arrived: abandon
// the sketch and fetch the full block from the peer that pushed it.
func (n *Node) compactTimeout(id chain.Hash) {
	n.mu.Lock()
	pc := n.pendingCmpct[id]
	if pc != nil {
		pc.timer.Stop()
		delete(n.pendingCmpct, id)
	}
	n.mu.Unlock()
	if pc == nil {
		return
	}
	n.metrics.cmpctFullFallbacks.Inc()
	n.relay.Request("block", p2p.ObjectID(id), pc.from)
}

// clearPendingCompact drops a sketch round trip obsoleted by the full
// body arriving through another path.
func (n *Node) clearPendingCompact(id chain.Hash) {
	n.mu.Lock()
	if pc, ok := n.pendingCmpct[id]; ok {
		pc.timer.Stop()
		delete(n.pendingCmpct, id)
	}
	n.mu.Unlock()
}

// completeCompact accepts a reconstructed block and forwards its sketch
// to peers that have not seen it, so compact propagation stays compact
// beyond the first hop.
func (n *Node) completeCompact(b *chain.Block, from string) {
	n.metrics.cmpctReconstructed.Inc()
	id := p2p.ObjectID(b.ID())
	n.relay.Put("block", id, b.Serialize())
	n.relay.MarkKnown(from, "block", id)
	n.acceptBlock(b, from)
	n.sendCompact(b, from)
}
