package daemon

import (
	"context"
	"strings"
	"testing"

	"bcwan/internal/rpc"
)

// TestNodeTelemetryEndToEnd checks a deployed cluster's registries carry
// series from every instrumented subsystem, and that Node.Open records
// store load latency.
func TestNodeTelemetryEndToEnd(t *testing.T) {
	c := newCluster(t)
	c.mine()
	c.mine()

	// One RPC round trip so rpc counters move.
	cli := rpc.NewClient(c.master.RPCAddr())
	if err := cli.Call(context.Background(), "getblockcount", nil); err != nil {
		t.Fatal(err)
	}

	if _, err := c.master.Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	have := make(map[string]float64)
	for _, m := range c.master.Telemetry().Snapshot() {
		have[m.Name] = m.Value
	}
	for name, wantNonZero := range map[string]bool{
		"bcwan_chain_blocks_connected_total": true,
		"bcwan_chain_utxo_size":              true,
		"bcwan_mempool_size":                 false,
		"bcwan_mempool_admitted_total":       false,
		"bcwan_miner_blocks_mined_total":     true,
		"bcwan_p2p_peer_count":               true,
		"bcwan_p2p_bytes_out_total":          true,
		"bcwan_rpc_inflight_requests":        false,
		"bcwan_daemon_deliveries_sent_total": false,
	} {
		v, ok := have[name]
		if !ok {
			t.Errorf("master registry missing %s", name)
			continue
		}
		if wantNonZero && v == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
	for _, m := range c.master.Telemetry().Snapshot() {
		if m.Name == "bcwan_daemon_store_load_seconds" {
			if m.Histogram == nil || m.Histogram.Count != 1 {
				t.Errorf("%s count = %+v, want 1 observation", m.Name, m.Histogram)
			}
		}
	}

	// The gateway daemon's registry carries the fair-exchange series
	// (at zero — no exchange ran here).
	foundGateway := false
	for _, m := range c.gwd.Node.Telemetry().Snapshot() {
		if strings.HasPrefix(m.Name, "bcwan_gateway_") {
			foundGateway = true
		}
	}
	if !foundGateway {
		t.Error("gateway registry has no bcwan_gateway_ series")
	}
}
