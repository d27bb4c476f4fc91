package p2p

import "bcwan/internal/telemetry"

// p2pMetrics holds the gossip node's instrumentation. All fields are
// nil-safe no-ops when the node was built without a registry, so the
// hot paths only pay a nil check.
type p2pMetrics struct {
	ns           *telemetry.Namespace
	bytesIn      *telemetry.Counter
	bytesOut     *telemetry.Counter
	messageBytes *telemetry.Histogram
	peerCount    *telemetry.Gauge
	dialFailures *telemetry.Counter
	queueDrops   *telemetry.Counter
	misbehavior  *telemetry.Counter
	bans         *telemetry.Counter

	// Inventory-relay counters (see relay.go). All nil-safe through the
	// label-lookup helpers below.
	relayTimeouts    *telemetry.Counter
	relayRerequests  *telemetry.Counter
	relayExpired     *telemetry.Counter
	relayUnfulfilled *telemetry.Counter
}

// knownMessageTypes are pre-registered so the per-type series exist at
// zero before the first message of each type flows.
var knownMessageTypes = []string{"tx", "block", "inv", "getdata", "cmpctblock", "getblocktxn", "blocktxn"}

func newP2PMetrics(reg *telemetry.Registry) *p2pMetrics {
	ns := reg.Namespace("p2p")
	m := &p2pMetrics{
		ns:           ns,
		bytesIn:      ns.Counter("bytes_in_total", "Total message bytes (type, sender, payload) received from peers."),
		bytesOut:     ns.Counter("bytes_out_total", "Total message bytes (type, sender, payload) sent to peers."),
		messageBytes: ns.Histogram("message_bytes", "Distribution of received message sizes in bytes (type, sender, payload).", telemetry.SizeBuckets),
		peerCount:    ns.Gauge("peer_count", "Connected gossip peers."),
		dialFailures: ns.Counter("dial_failures_total", "Outbound connection attempts that failed."),
		queueDrops:   ns.Counter("send_queue_drops_total", "Outbound messages dropped because a peer's send queue was full."),
		misbehavior:  ns.Counter("misbehavior_points_total", "Misbehavior points charged against peers for protocol abuse."),
		bans:         ns.Counter("bans_total", "Peers banned after crossing the misbehavior threshold."),

		relayTimeouts:    ns.Counter("relay_request_timeouts_total", "Object requests that timed out waiting for the asked announcer."),
		relayRerequests:  ns.Counter("relay_rerequests_total", "Timed-out object requests retried against another announcer."),
		relayExpired:     ns.Counter("relay_requests_expired_total", "Object requests abandoned after every announcer was tried."),
		relayUnfulfilled: ns.Counter("relay_getdata_unfulfilled_total", "getdata requests for objects this node no longer holds."),
	}
	for _, t := range knownMessageTypes {
		m.msgIn(t)
		m.msgOut(t)
	}
	return m
}

// msgIn returns the received-message counter for a type. The registry's
// create-or-get semantics make this cheap after first use.
func (m *p2pMetrics) msgIn(msgType string) *telemetry.Counter {
	if m == nil {
		return nil
	}
	return m.ns.Counter("messages_in_total", "Gossip messages received, by type.", telemetry.L("type", msgType))
}

// msgOut returns the sent-message counter for a type.
func (m *p2pMetrics) msgOut(msgType string) *telemetry.Counter {
	if m == nil {
		return nil
	}
	return m.ns.Counter("messages_out_total", "Gossip messages sent, by type.", telemetry.L("type", msgType))
}

// connRefused returns the refused-connection counter for a reason
// ("banned" or "full").
func (m *p2pMetrics) connRefused(reason string) *telemetry.Counter {
	if m == nil {
		return nil
	}
	return m.ns.Counter("connections_refused_total", "Connections refused, by reason.",
		telemetry.L("reason", reason))
}

// relayAnnounce returns the inv-announcement counter for a kind and
// direction ("in"/"out").
func (m *p2pMetrics) relayAnnounce(kind, dir string) *telemetry.Counter {
	if m == nil {
		return nil
	}
	return m.ns.Counter("relay_announces_total", "Inventory digests announced, by object kind and direction.",
		telemetry.L("kind", kind), telemetry.L("dir", dir))
}

// relayRequest returns the getdata counter for a kind and direction.
func (m *p2pMetrics) relayRequest(kind, dir string) *telemetry.Counter {
	if m == nil {
		return nil
	}
	return m.ns.Counter("relay_requests_total", "Objects requested via getdata, by kind and direction.",
		telemetry.L("kind", kind), telemetry.L("dir", dir))
}

// relayFulfill returns the fulfillment counter for a kind and direction.
func (m *p2pMetrics) relayFulfill(kind, dir string) *telemetry.Counter {
	if m == nil {
		return nil
	}
	return m.ns.Counter("relay_fulfills_total", "Objects delivered in answer to getdata, by kind and direction.",
		telemetry.L("kind", kind), telemetry.L("dir", dir))
}
