package main

// The metric and workload catalogue. BENCHMARK.json at the repo root
// lists the same names; TestCatalogueMatchesManifest keeps the two in
// step.

// metricDef names one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// Workload names.
const (
	wlFacade     = "facade_onchain"
	wlTCPChannel = "tcp_channel"
	wlTCPOnChain = "tcp_onchain"
	wlSim        = "sim_federation"
)

var workloadNames = []string{wlFacade, wlTCPChannel, wlTCPOnChain, wlSim}

// endToEnd are the gated metrics: every workload reports every one of
// them from its untraced run. On sim_federation the two latency metrics
// are in simulated time (the paper's Fig. 5 quantity); everywhere else
// they are host wall time.
var endToEnd = []metricDef{
	{"deliveries_per_s", "1/s"},
	{"delivery_p50_ms", "ms"},
	{"delivery_p95_ms", "ms"},
	{"cpu_ms_per_delivery", "ms"},
	{"alloc_kb_per_delivery", "kB"},
	{"setup_s", "s"},
}

// wholeRun are end-to-end quantities that cannot carry a bound:
// failed_share is 0 at baseline, retained memory means nothing for the
// simulator, and the virtual statistics repeat exactly for a seed. The
// untraced run prints them after the gated metrics; the traced run
// reports them with the per-layer metrics.
var wholeRun = []metricDef{
	{"e2e.failed_share", "ratio"},
	{"e2e.retained_kb_per_delivery", "kB"},
	{"sim.virt_delivery_mean_ms", "ms"},
	{"sim.virt_delivery_p95_ms", "ms"},
}

// perLayer are the ungated metrics of the traced run. A metric a
// workload does not exercise reads 0 there.
var perLayer = append(append([]metricDef(nil), wholeRun...), []metricDef{
	{"bccrypto.keygen_us", "us"},
	{"bccrypto.encrypt_sign_us", "us"},
	{"bccrypto.decrypt_us", "us"},
	{"bccrypto.pair_verify_us", "us"},
	{"device.dataframe_us", "us"},
	{"gateway.keyrequest_us", "us"},
	{"gateway.handledata_us", "us"},
	{"gateway.claim_us", "us"},
	{"recipient.handledelivery_us", "us"},
	{"recipient.settle_us", "us"},
	{"wallet.build_payment_us", "us"},
	{"script.fairex_verify_us", "us"},
	{"registry.resolve_us", "us"},
	{"chain.mempool_admit_us", "us"},
	{"chain.mine_us", "us"},
	{"chain.replay_tx_per_s", "1/s"},
	{"chain.sigcache_hit_ratio", "ratio"},
	{"chain.utxo_size", "count"},
	{"facade.rate_drift", "ratio"},
	{"channel.sign_update_us", "us"},
	{"channel.apply_update_us", "us"},
	{"channel.store_save_us", "us"},
	{"channel.updates_per_delivery", "ratio"},
	{"daemon.uplink_keyreq_ms", "ms"},
	{"daemon.uplink_data_ms", "ms"},
	{"daemon.ack_to_inbox_ms", "ms"},
	{"daemon.tx_propagate_ms", "ms"},
	{"daemon.mine_ms", "ms"},
	{"daemon.block_propagate_ms", "ms"},
	{"daemon.cmpct_hit_ratio", "ratio"},
	{"p2p.msgs_per_delivery", "count"},
	{"p2p.bytes_per_delivery", "B"},
	{"store.fsyncs_per_delivery", "count"},
	{"store.append_ms", "ms"},
	{"store.bytes_per_delivery", "B"},
	{"store.reload_ms", "ms"},
	{"sync.join_ms", "ms"},
	{"lora.frames_sent", "count"},
	{"lora.collisions", "count"},
	{"lora.delivered_ratio", "ratio"},
	{"sim.retries", "count"},
	{"sim.blocks", "count"},
	{"lora.tx_us", "us"},
	{"simtime.timer_ns", "ns"},
	{"tail.delivery_p99_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.goroutines_peak", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_share", "ratio"},
	{"trace.span_coverage", "ratio"},
}...)

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name; units come from the
// catalogue when the set is rendered.
type metricSet map[string]float64

// render returns every metric of defs, reading 0 for the ones the
// workload did not set.
func (m metricSet) render(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
