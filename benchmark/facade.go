package main

import (
	"bytes"
	"fmt"
	"time"

	"bcwan"
	"bcwan/internal/telemetry"
)

// facadeWarmup is the fixed number of exchanges run before the window.
const facadeWarmup = 200

// facade is the facade_onchain workload: one client in a closed loop on
// bcwan.Network.RunExchange — one sensor population, one gateway, one
// recipient, per-reading on-chain settlement, one block per reading, no
// sockets and no disk.
type facade struct {
	cfg     runConfig
	net     *bcwan.Network
	gw      *bcwan.Gateway
	rc      *bcwan.Recipient
	sensors []*bcwan.Sensor
	reg     *telemetry.Registry
	// baseTelemetry is the counter baseline taken after warm-up.
	baseTelemetry map[string]float64
	// seq numbers every exchange started, warm-up included; settled counts
	// those RunExchange completed.
	seq     uint32
	settled int
	// warm is set once set-up is over; the corruption hook waits for it.
	warm bool
}

func newFacade(cfg runConfig) *facade { return &facade{cfg: cfg} }

func (f *facade) slice(_ time.Duration, traced bool) time.Duration { return sliceLength(traced) }

func (f *facade) costPrefix() int { return 1000 }

func (f *facade) setup() error {
	ncfg := bcwan.DefaultNetworkConfig()
	ncfg.Treasury = 1_000_000_000
	net, err := bcwan.NewNetwork(ncfg)
	if err != nil {
		return err
	}
	f.net = net
	if f.cfg.trace {
		// Counters only; read back as chain.sigcache_hit_ratio and
		// chain.utxo_size.
		f.reg = telemetry.NewRegistry()
		net.Chain().Instrument(f.reg)
	}
	if f.gw, err = net.NewGateway(bcwan.DefaultGatewayConfig()); err != nil {
		return err
	}
	if f.rc, err = net.NewRecipient("10.0.0.7:7000", bcwan.DefaultRecipientConfig()); err != nil {
		return err
	}
	// NewRecipient funds 1M, about 9900 readings; the window delivers more.
	if err := net.Fund(f.rc.Wallet(), 500_000_000); err != nil {
		return err
	}
	for i := 0; i < devicesPerStream; i++ {
		s, err := f.rc.ProvisionSensor()
		if err != nil {
			return err
		}
		f.sensors = append(f.sensors, s)
	}
	warmup := facadeWarmup
	if f.cfg.quick {
		warmup /= 10
	}
	for i := 0; i < warmup; i++ {
		if _, err := f.exchange(nil); err != nil {
			return fmt.Errorf("warm-up exchange %d: %w", i, err)
		}
	}
	if f.reg != nil {
		f.baseTelemetry = telemetrySums([]*telemetry.Registry{f.reg})
	}
	f.warm = true
	return nil
}

// exchange delivers the next reading and verifies the plaintext the
// recipient decrypted. It returns the delivery latency.
func (f *facade) exchange(tr *tracer) (time.Duration, error) {
	seq := f.seq
	f.seq++
	want := reading(f.cfg.seed, 0, seq)
	sensor := f.sensors[pickDevice(f.cfg.seed, 0, seq)]
	start := time.Now()
	var (
		msg *bcwan.Message
		err error
	)
	if tr == nil {
		msg, err = f.net.RunExchange(sensor, f.gw, f.rc, want)
	} else {
		msg, err = f.tracedExchange(tr, sensor, want, start)
	}
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	f.settled++
	if n := f.cfg.corruptEvery; f.warm && n > 0 && int(seq)%n == 0 {
		want = spoiled(want)
	}
	if msg.DevEUI != sensor.EUI() || !bytes.Equal(msg.Plaintext, want) {
		return lat, fmt.Errorf("reading %d: recipient decrypted %x from %s, want %x from %s",
			seq, msg.Plaintext, msg.DevEUI, want, sensor.EUI())
	}
	return lat, nil
}

// tracedExchange is RunExchange spelled out as the seven actor calls it
// makes, with a span around each.
func (f *facade) tracedExchange(tr *tracer, s *bcwan.Sensor, payload []byte, start time.Time) (*bcwan.Message, error) {
	req := s.KeyRequestFrame()
	exch := exchangeID(req.DevEUI, req.Counter)
	root := tr.open("delivery", start, exch)
	defer func() { tr.close(root, time.Now()) }()
	// mark closes the span of the step that just ran and starts the next.
	t0 := start
	mark := func(name string) {
		now := time.Now()
		tr.add(name, t0, now, root, exch)
		t0 = now
	}

	keyResp, err := f.gw.HandleKeyRequest(req)
	mark("gateway.keyrequest")
	if err != nil {
		return nil, fmt.Errorf("key request: %w", err)
	}
	dataFrame, err := s.DataFrame(payload, keyResp.Payload, keyResp.Counter)
	mark("device.dataframe")
	if err != nil {
		return nil, fmt.Errorf("data frame: %w", err)
	}
	offerHeight := f.net.Chain().Height()
	delivery, netAddr, err := f.gw.HandleData(dataFrame)
	mark("gateway.handledata")
	if err != nil {
		return nil, fmt.Errorf("delivery: %w", err)
	}
	if netAddr != f.rc.NetAddr() {
		return nil, fmt.Errorf("resolved %q, want %q", netAddr, f.rc.NetAddr())
	}
	payment, err := f.rc.HandleDelivery(delivery)
	mark("recipient.handledelivery")
	if err != nil {
		return nil, fmt.Errorf("payment: %w", err)
	}
	claim, err := f.gw.VerifyAndClaim(delivery.DevEUI, delivery.Exchange, payment.ID(), offerHeight)
	mark("gateway.claim")
	if err != nil {
		return nil, fmt.Errorf("claim: %w", err)
	}
	_, err = f.net.MineBlock()
	mark("chain.mine")
	if err != nil {
		return nil, err
	}
	msg, err := f.rc.SettleClaimTx(payment.ID(), claim)
	mark("recipient.settle")
	if err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}
	return msg, nil
}

func (f *facade) run(d time.Duration, limit int, tr *tracer) tally {
	var t tally
	t.latencies = make([]time.Duration, 0, 1<<9)
	start := time.Now()
	for time.Since(start) < d && (limit <= 0 || t.verified < limit) {
		var lat time.Duration
		err, timedOut, returned := deadlineCall(func() (err error) {
			lat, err = f.exchange(tr)
			return err
		})
		t.attempted++
		switch {
		case timedOut:
			// One client: nothing else to run until the call comes back.
			<-returned
		case err == nil:
			t.verified++
			t.latencies = append(t.latencies, lat)
		}
	}
	t.wall = time.Since(start)
	return t
}

func (f *facade) verify(total tally) []string {
	var problems []string
	gcfg := bcwan.DefaultGatewayConfig()
	// One claim per settled reading, each worth the price less its fee.
	if got, want := f.gw.Wallet().Balance(f.net.Ledger().UTXO()), uint64(f.settled)*(gcfg.Price-gcfg.ClaimFee); got != want {
		problems = append(problems, fmt.Sprintf("gateway earned %d, want %d for %d settled readings", got, want, f.settled))
	}
	if got := int(f.rc.Stats.Decryptions); got != f.settled {
		problems = append(problems, fmt.Sprintf("recipient decrypted %d readings, %d exchanges settled", got, f.settled))
	}
	if err := f.net.Chain().CheckConsistency(); err != nil {
		problems = append(problems, "chain consistency: "+err.Error())
	}
	return problems
}

func (f *facade) layers(m metricSet, tr *tracer, total tally) {
	m["gateway.keyrequest_us"] = us(tr.meanOf("gateway.keyrequest"))
	m["device.dataframe_us"] = us(tr.meanOf("device.dataframe"))
	m["gateway.handledata_us"] = us(tr.meanOf("gateway.handledata"))
	m["recipient.handledelivery_us"] = us(tr.meanOf("recipient.handledelivery"))
	m["gateway.claim_us"] = us(tr.meanOf("gateway.claim"))
	m["chain.mine_us"] = us(tr.meanOf("chain.mine"))
	m["recipient.settle_us"] = us(tr.meanOf("recipient.settle"))
	m["chain.sigcache_hit_ratio"] = sigcacheHitRatio(telemetrySums([]*telemetry.Registry{f.reg}), f.baseTelemetry)
	chainProbes(m, f.cfg, chainState{
		ledger:    f.net.Ledger(),
		directory: f.net.Directory(),
		payer:     f.rc.Wallet(),
		gatewayID: f.gw.Wallet().PubKeyHash(),
		mine: func() error {
			_, err := f.net.MineBlock()
			return err
		},
	})
}

func (f *facade) teardown() {}
