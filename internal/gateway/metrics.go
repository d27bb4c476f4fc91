package gateway

import "bcwan/internal/telemetry"

// gatewayMetrics instruments the fair-exchange protocol. All fields are
// nil-safe no-ops when the gateway is not instrumented.
type gatewayMetrics struct {
	exchangesStarted *telemetry.Counter
	exchangesSettled *telemetry.Counter
	exchangesFailed  *telemetry.Counter
	// keysMintedInline counts the key requests that found the key pool
	// empty; against exchangesStarted it gives the pool's hit ratio.
	keysMintedInline *telemetry.Counter
	// keyDisclosureSeconds measures the full exchange latency: from the
	// ephemeral key handout (Fig. 3 step 2) to the claim transaction
	// that disclosed the private key (step 10).
	keyDisclosureSeconds *telemetry.Histogram
}

func newGatewayMetrics(reg *telemetry.Registry) *gatewayMetrics {
	ns := reg.Namespace("gateway")
	return &gatewayMetrics{
		exchangesStarted:     ns.Counter("exchanges_started_total", "Fair exchanges opened by an ephemeral key handout."),
		exchangesSettled:     ns.Counter("exchanges_settled_total", "Fair exchanges settled by a successful claim."),
		exchangesFailed:      ns.Counter("exchanges_failed_total", "Fair exchanges that failed payment checks or claim submission."),
		keysMintedInline:     ns.Counter("keys_minted_inline_total", "Key requests that found the ephemeral key pool empty and minted inline."),
		keyDisclosureSeconds: ns.Histogram("key_disclosure_seconds", "Latency from ephemeral key handout to claim submission.", nil),
	}
}
