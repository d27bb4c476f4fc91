package daemon

import "bcwan/internal/telemetry"

// daemonMetrics instruments the deployable daemons: Fig. 3 step-7
// deliveries on both sides, and chain-store persistence latency.
type daemonMetrics struct {
	deliveriesSent     *telemetry.Counter
	deliveriesReceived *telemetry.Counter
	orphanTxsParked    *telemetry.Counter
	// The gateway's claim wait (DESIGN.md §6): ack received to claim
	// submitted, and wake-ups that did not yet find the payment.
	claimWaitSeconds   *telemetry.Histogram
	claimRechecks      *telemetry.Counter
	storeLoadSeconds   *telemetry.Histogram
	storeAppendSeconds *telemetry.Histogram
	storeCompactions   *telemetry.Counter

	// Headers-first sync and snapshot bootstrap (DESIGN.md §13).
	headersSynced           *telemetry.Counter
	snapshotRejected        *telemetry.Counter
	snapshotChunksServed    *telemetry.Counter
	syncFullFallbacks       *telemetry.Counter
	snapshotInstalledHeight *telemetry.Gauge

	// Compact block relay (BIP152-style; see DESIGN.md §12). Hit rate =
	// hits/received; the fallback ladder shows up as txn round trips and
	// full-block fetches.
	cmpctSent          *telemetry.Counter
	cmpctReceived      *telemetry.Counter
	cmpctHits          *telemetry.Counter
	cmpctReconstructed *telemetry.Counter
	cmpctTxnRequests   *telemetry.Counter
	cmpctTxnServed     *telemetry.Counter
	cmpctFullFallbacks *telemetry.Counter

	// Payment channels (DESIGN.md §14): off-chain settlement volume and
	// the lifecycle of the on-chain anchors.
	channelsOpen   *telemetry.Gauge
	channelsOpened *telemetry.Counter
	channelsClosed *telemetry.Counter
	channelRefunds *telemetry.Counter
	channelUpdates *telemetry.Counter
	channelValue   *telemetry.Counter
}

func newDaemonMetrics(reg *telemetry.Registry) *daemonMetrics {
	ns := reg.Namespace("daemon")
	return &daemonMetrics{
		deliveriesSent:     ns.Counter("deliveries_sent_total", "Deliveries a gateway daemon pushed to recipients and saw acknowledged."),
		deliveriesReceived: ns.Counter("deliveries_received_total", "Deliveries a recipient daemon decoded from gateways."),
		orphanTxsParked:    ns.Counter("orphan_txs_parked_total", "Gossiped transactions parked until their inputs become visible."),
		claimWaitSeconds:   ns.Histogram("claim_wait_seconds", "Gateway wait from the recipient's ack to the claim's submission, in seconds.", nil),
		claimRechecks:      ns.Counter("claim_rechecks_total", "Gateway claim wake-ups that did not yet find the payment (or its confirmations)."),
		storeLoadSeconds:   ns.Histogram("store_load_seconds", "Chain store load latency in seconds.", nil),
		storeAppendSeconds: ns.Histogram("store_append_seconds", "Block-log append+fsync latency in seconds.", nil),
		storeCompactions:   ns.Counter("store_compactions_total", "Compactions of the chain store: a checkpoint record, or a log rewrite when the prune base moved."),

		headersSynced:           ns.Counter("sync_headers_total", "Headers appended to the sync spine during headers-first sync."),
		snapshotRejected:        ns.Counter("snapshot_rejected_total", "Snapshot manifests, chunks or commitments that failed verification."),
		snapshotChunksServed:    ns.Counter("snapshot_chunks_served_total", "Snapshot chunks served to bootstrapping peers."),
		syncFullFallbacks:       ns.Counter("sync_full_fallbacks_total", "Bootstraps that fell back to full sync after every snapshot peer failed."),
		snapshotInstalledHeight: ns.Gauge("snapshot_installed_height", "Horizon height of the installed snapshot bootstrap (0 = full sync)."),

		cmpctSent:          ns.Counter("cmpct_sent_total", "Compact block sketches pushed to peers."),
		cmpctReceived:      ns.Counter("cmpct_received_total", "Compact block sketches received from peers."),
		cmpctHits:          ns.Counter("cmpct_hits_total", "Compact blocks reconstructed entirely from the local mempool."),
		cmpctReconstructed: ns.Counter("cmpct_reconstructed_total", "Compact blocks reconstructed, including via a getblocktxn round trip."),
		cmpctTxnRequests:   ns.Counter("cmpct_txn_requests_total", "getblocktxn round trips issued for transactions missing from the mempool."),
		cmpctTxnServed:     ns.Counter("cmpct_txn_served_total", "getblocktxn requests answered with a blocktxn response."),
		cmpctFullFallbacks: ns.Counter("cmpct_full_fallbacks_total", "Compact reconstructions abandoned for a full-block fetch."),

		channelsOpen:   ns.Gauge("channels_open", "Payment channels currently open on this daemon."),
		channelsOpened: ns.Counter("channels_opened_total", "Payment channels opened (funded or accepted)."),
		channelsClosed: ns.Counter("channels_closed_total", "Payment channels settled by a commitment broadcast."),
		channelRefunds: ns.Counter("channel_refunds_total", "Channels reclaimed through the CLTV refund path."),
		channelUpdates: ns.Counter("channel_updates_total", "Off-chain commitment updates settled (one per delivery)."),
		channelValue:   ns.Counter("channel_offchain_value_total", "Cumulative value moved by off-chain channel updates."),
	}
}
