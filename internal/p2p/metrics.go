package p2p

import (
	"sync"
	"sync/atomic"

	"bcwan/internal/telemetry"
)

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

	// Inventory-relay counters (see relay.go).
	relayTimeouts    *telemetry.Counter
	relayRerequests  *telemetry.Counter
	relayExpired     *telemetry.Counter
	relayUnfulfilled *telemetry.Counter

	// names holds the per-type and per-kind counters (see local and
	// remote); mu guards the map, not the counters.
	mu    sync.Mutex
	names map[string]*nameCounters
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

		names: make(map[string]*nameCounters),
	}
	for _, t := range knownMessageTypes {
		c := m.local(t)
		c.get(msgIn)
		c.get(msgOut)
	}
	return m
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

// nameSeries indexes the counters a message type or relay object kind
// has: messages by type, and relay traffic by kind and direction.
type nameSeries int

const (
	msgIn nameSeries = iota
	msgOut
	announceIn
	announceOut
	requestIn
	requestOut
	fulfillIn
	fulfillOut
	numNameSeries
)

// nameSeriesDefs gives each per-name series its metric and, for a relay
// series, its direction; a message series is labelled by type alone.
var nameSeriesDefs = [numNameSeries]struct{ name, help, dir string }{
	msgIn:       {"messages_in_total", "Gossip messages received, by type.", ""},
	msgOut:      {"messages_out_total", "Gossip messages sent, by type.", ""},
	announceIn:  {"relay_announces_total", "Inventory digests announced, by object kind and direction.", "in"},
	announceOut: {"relay_announces_total", "Inventory digests announced, by object kind and direction.", "out"},
	requestIn:   {"relay_requests_total", "Objects requested via getdata, by kind and direction.", "in"},
	requestOut:  {"relay_requests_total", "Objects requested via getdata, by kind and direction.", "out"},
	fulfillIn:   {"relay_fulfills_total", "Objects delivered in answer to getdata, by kind and direction.", "in"},
	fulfillOut:  {"relay_fulfills_total", "Objects delivered in answer to getdata, by kind and direction.", "out"},
}

// nameCounters holds one type's (or kind's) counters. Each is looked up
// in the registry once, on its first use — so /metrics lists only the
// series that counted something, exactly as per-event lookups did — and
// read with one atomic load afterwards.
type nameCounters struct {
	ns     *telemetry.Namespace
	name   string
	series [numNameSeries]atomic.Pointer[telemetry.Counter]
}

// get returns the counter for one series; nil-safe.
func (c *nameCounters) get(s nameSeries) *telemetry.Counter {
	if c == nil {
		return nil
	}
	if ctr := c.series[s].Load(); ctr != nil {
		return ctr
	}
	d := nameSeriesDefs[s]
	var ctr *telemetry.Counter
	if d.dir == "" {
		ctr = c.ns.Counter(d.name, d.help, telemetry.L("type", c.name))
	} else {
		ctr = c.ns.Counter(d.name, d.help, telemetry.L("kind", c.name), telemetry.L("dir", d.dir))
	}
	c.series[s].Store(ctr)
	return ctr
}

// local returns the counters of a type or kind this node names itself —
// one it handles, sends, announces or requests — adding it to the table
// on first use.
func (m *p2pMetrics) local(name string) *nameCounters {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.names[name]
	if c == nil {
		c = &nameCounters{ns: m.ns, name: name}
		m.names[name] = c
	}
	return c
}

// remote returns the counters of a type or kind a peer named, or nil
// when this node never named it: the table grows only through local,
// so a peer cannot mint series with junk names.
func (m *p2pMetrics) remote(name string) *nameCounters {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.names[name]
}
