package rpc

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"bcwan/internal/lora"
	"bcwan/internal/simtime"
	"bcwan/internal/telemetry"
)

// TestMetricsEndpoint checks GET /metrics serves Prometheus text with
// series from chain, mempool and rpc, and rejects other verbs.
func TestMetricsEndpoint(t *testing.T) {
	f := newFixture(t)
	if _, err := f.miner.Mine(time.Now()); err != nil {
		t.Fatal(err)
	}
	// One RPC call so rpc counters are non-zero.
	if err := f.client.Call(context.Background(), "getblockcount", nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + f.server.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"bcwan_chain_blocks_connected_total 1",
		"bcwan_chain_utxo_size",
		"bcwan_chain_block_connect_seconds_bucket",
		"bcwan_mempool_size",
		"bcwan_mempool_accept_seconds_count",
		`bcwan_rpc_requests_total{method="getblockcount"} 1`,
		"bcwan_rpc_inflight_requests",
		"bcwan_rpc_request_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Non-GET verbs are rejected.
	postResp, err := http.Post("http://"+f.server.Addr()+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status = %d, want 405", postResp.StatusCode)
	}

	// Pre-dispatch protocol errors count in the per-code error series.
	badResp, err := http.Post("http://"+f.server.Addr()+"/", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	resp2, err := http.Get("http://" + f.server.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := `bcwan_rpc_errors_total{code="-32700"} 1`; !strings.Contains(string(body2), want) {
		t.Errorf("/metrics missing %q after parse error", want)
	}
}

// TestGetMetricsAgreesWithPrometheus asserts the getmetrics JSON-RPC
// snapshot and GET /metrics expose the same values: the JSON snapshot,
// re-rendered through the Prometheus writer, must match the served text
// exactly for every non-rpc family (rpc's own counters move between the
// two requests).
func TestGetMetricsAgreesWithPrometheus(t *testing.T) {
	f := newFixture(t)
	if _, err := f.miner.Mine(time.Now()); err != nil {
		t.Fatal(err)
	}
	// A known-value series to anchor the comparison.
	f.reg.Counter("bcwan_test_known_total", "Test anchor.").Add(42)

	resp, err := http.Get("http://" + f.server.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	var snap []telemetry.Metric
	if err := f.client.Call(context.Background(), "getmetrics", &snap); err != nil {
		t.Fatal(err)
	}

	anchored := false
	for _, m := range snap {
		if m.Name == "bcwan_test_known_total" {
			anchored = true
			if m.Value != 42 {
				t.Fatalf("anchor counter = %v, want 42", m.Value)
			}
		}
	}
	if !anchored {
		t.Fatal("anchor counter missing from getmetrics snapshot")
	}

	stable := func(name string) bool { return !strings.HasPrefix(name, "bcwan_rpc_") }
	var fromJSON []telemetry.Metric
	for _, m := range snap {
		if stable(m.Name) {
			fromJSON = append(fromJSON, m)
		}
	}
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, fromJSON); err != nil {
		t.Fatal(err)
	}
	var servedStable strings.Builder
	skip := false
	for _, line := range strings.SplitAfter(string(served), "\n") {
		if line == "" {
			continue
		}
		name := line
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			name = line[7:]
		}
		if i := strings.IndexAny(name, " {"); i > 0 {
			skip = !stable(name[:i])
		}
		if !skip {
			servedStable.WriteString(line)
		}
	}
	if servedStable.String() != buf.String() {
		t.Fatalf("expositions disagree:\n--- /metrics (stable series) ---\n%s\n--- getmetrics re-rendered ---\n%s",
			servedStable.String(), buf.String())
	}
}

// TestGetMetricsSeesSimulationGauges wires the discrete-event engine's
// instrumentation — clock, radio medium, duty cycle — into a node registry
// and asserts the gauges surface through the getmetrics RPC.
func TestGetMetricsSeesSimulationGauges(t *testing.T) {
	f := newFixture(t)
	origin := time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)

	clk := simtime.NewSim(origin)
	clk.Instrument(f.reg)
	clk.NewTimer(time.Minute)

	sched := simtime.NewScheduler(origin)
	ch := lora.NewChannel(sched, lora.DefaultPathLoss(), lora.DefaultPHY())
	ch.Instrument(f.reg)
	gw := ch.NewRadio("gw", lora.Position{})
	gw.OnReceive(func(lora.RxFrame) {})
	dev := ch.NewRadio("dev", lora.Position{X: 500})
	if _, err := dev.Transmit([]byte{1}, lora.SF7, lora.DefaultChannels[0]); err != nil {
		t.Fatal(err)
	}

	dc, err := lora.NewDutyCycle(0.01)
	if err != nil {
		t.Fatal(err)
	}
	dc.Instrument(f.reg.Namespace("lora").Gauge(
		"dutycycle_used_fraction", "In-window airtime over budget, in ppm."))
	dc.Record(sched.Now(), 18*time.Second) // half the 36 s budget

	var snap []telemetry.Metric
	if err := f.client.Call(context.Background(), "getmetrics", &snap); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range snap {
		got[m.Name] = m.Value
	}
	for name, want := range map[string]float64{
		"bcwan_sim_pending_timers":           1,
		"bcwan_lora_active_transmissions":    1,
		"bcwan_lora_grid_cells":              1,
		"bcwan_lora_dutycycle_used_fraction": 500_000,
	} {
		v, ok := got[name]
		if !ok {
			t.Errorf("getmetrics missing %s", name)
			continue
		}
		if v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}
