package main

import (
	"fmt"
	"time"

	"bcwan/internal/experiments"
	"bcwan/internal/lora"
)

// Simulated federation shape: 20 gateways × 50 sensors, the Fig. 5
// configuration otherwise.
const (
	simGateways          = 20
	simSensorsPerGateway = 50
	// simExchangesPerSecond sizes the fixed work from the window length:
	// the run is fixed work, not fixed time, and this constant is what
	// made it last about the window on the host the baseline was taken
	// on. It is part of the workload definition — do not tune it per host.
	simExchangesPerSecond = 125
)

// simWorkload is sim_federation: experiments.Run with the real gateway,
// recipient and device actors over simtime + lora + netsim. It is the
// only workload where the radio model, the event loop and large-block
// mempool/mine do real work.
type simWorkload struct {
	cfg     runConfig
	results []simOutcome
}

// simOutcome is what the harness keeps of one experiments.Result. The
// Result itself is let go: it points into the simulator and would pin
// its chain and radios for the rest of the run.
type simOutcome struct {
	asked, completed, failed, latencies int
	retries, blocks                     int
	summary                             experiments.LatencyStats
	channel                             lora.ChannelStats
}

func newSimWorkload(cfg runConfig) *simWorkload { return &simWorkload{cfg: cfg} }

// slice is the whole window, or half of it for a traced run: the same
// seed twice, which doubles as a determinism check — the virtual
// statistics of both runs must be identical.
func (w *simWorkload) slice(window time.Duration, traced bool) time.Duration {
	if traced {
		return window / 2
	}
	return window
}

// costPrefix is 0: the run is fixed work already.
func (w *simWorkload) costPrefix() int { return 0 }

func (w *simWorkload) config(exchanges int) experiments.Config {
	c := experiments.Fig5Config()
	c.Seed = w.cfg.seed
	c.Gateways = simGateways
	c.SensorsPerGateway = simSensorsPerGateway
	if w.cfg.quick {
		// Provisioning 1000 sensors alone takes seconds.
		c.Gateways, c.SensorsPerGateway = 4, 10
	}
	c.Exchanges = exchanges
	return c
}

// setup warms the process up with a small simulation (2 × 10 sensors,
// 60 exchanges) so lazy initialisation is out of the timed run.
func (w *simWorkload) setup() error {
	c := w.config(60)
	c.Gateways, c.SensorsPerGateway = 2, 10
	res, err := experiments.Run(c)
	if err != nil {
		return err
	}
	if res.Completed != c.Exchanges {
		return fmt.Errorf("warm-up completed %d of %d exchanges", res.Completed, c.Exchanges)
	}
	return nil
}

func (w *simWorkload) run(d time.Duration, _ int, tr *tracer) tally {
	exchanges := int(d.Seconds() * simExchangesPerSecond)
	if w.cfg.quick {
		exchanges = int(d.Seconds() * 100)
	}
	c := w.config(exchanges)
	start := time.Now()
	res, err := experiments.Run(c)
	end := time.Now()
	t := tally{attempted: exchanges, wall: end.Sub(start)}
	if err != nil {
		return t
	}
	tr.add("experiments.Run", start, end, -1, "")
	w.results = append(w.results, simOutcome{
		asked: exchanges, completed: res.Completed, failed: res.Failed, latencies: len(res.Latencies),
		retries: res.Retries, blocks: res.Blocks, summary: res.Summary, channel: res.Channel,
	})
	t.verified = res.Completed
	// Latencies are in simulated time: the paper's Fig. 5 quantity.
	t.latencies = append([]time.Duration(nil), res.Latencies...)
	return t
}

// virtual reports the simulated-time statistics of the run.
func (w *simWorkload) virtual(m metricSet) {
	if len(w.results) == 0 {
		return
	}
	s := w.results[0].summary
	m["sim.virt_delivery_mean_ms"] = ms(s.Mean)
	m["sim.virt_delivery_p95_ms"] = ms(s.P95)
}

func (w *simWorkload) verify(total tally) []string {
	var problems []string
	for i, r := range w.results {
		if r.completed+r.failed != r.asked || r.latencies != r.completed {
			problems = append(problems, fmt.Sprintf("run %d: %d completed + %d failed of %d exchanges, %d latencies",
				i, r.completed, r.failed, r.asked, r.latencies))
		}
		// Same seed, same size: the simulation must repeat exactly.
		if a := w.results[0]; r != a {
			problems = append(problems, fmt.Sprintf("run %d differs from run 0 of the same seed: %+v vs %+v", i, r, a))
		}
	}
	return problems
}

func (w *simWorkload) layers(m metricSet, tr *tracer, total tally) {
	w.virtual(m)
	if len(w.results) == 0 {
		return
	}
	r := w.results[0]
	m["lora.frames_sent"] = float64(r.channel.Transmissions)
	m["lora.collisions"] = float64(r.channel.Collisions)
	// Of the receptions that were in range, the share that got through.
	if heard := r.channel.Deliveries + r.channel.Collisions + r.channel.HalfDuplex; heard > 0 {
		m["lora.delivered_ratio"] = float64(r.channel.Deliveries) / float64(heard)
	}
	m["sim.retries"] = float64(r.retries)
	m["sim.blocks"] = float64(r.blocks)
}

func (w *simWorkload) teardown() {}
