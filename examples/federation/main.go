// Federation economy: the paper's conclusion claims BcWAN lets "parties
// with a shared goal securely deploy a common network in a fair manner" —
// and that "parties that don't participate to the network aren't able to
// take advantage of foreign property". This example runs a closed economy
// of three companies, each operating gateways (earning) and sensors
// (spending), plus one free-rider with sensors but no gateway. After a few
// hundred exchanges the contributors' balances stay near equilibrium while
// the free-rider only drains — the incentive structure The Things Network
// and PicoWAN lack (§3).
//
// Run with:
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bcwan"
)

type company struct {
	name    string
	actor   *bcwan.Actor
	rcpt    *bcwan.Recipient
	sensors []*bcwan.Sensor
	spent   int
	earned  int
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net, err := bcwan.NewNetwork(bcwan.DefaultNetworkConfig())
	if err != nil {
		return err
	}

	specs := []struct {
		name     string
		gateways int
	}{
		{"acme-metering", 2},
		{"urbansense", 1},
		{"aquatrack", 1},
		{"freerider", 0}, // sensors only; contributes nothing
	}

	companies := make([]*company, 0, len(specs))
	var allGateways []*bcwan.Gateway
	for i, spec := range specs {
		c := &company{name: spec.name, actor: net.NewActor(spec.name)}
		for g := 0; g < spec.gateways; g++ {
			gw, err := c.actor.AddGateway(bcwan.DefaultGatewayConfig())
			if err != nil {
				return err
			}
			allGateways = append(allGateways, gw)
		}
		c.rcpt, err = net.NewRecipient(fmt.Sprintf("203.0.113.%d:7000", 40+i), bcwan.DefaultRecipientConfig())
		if err != nil {
			return err
		}
		for s := 0; s < 5; s++ {
			sensor, err := c.rcpt.ProvisionSensor()
			if err != nil {
				return err
			}
			c.sensors = append(c.sensors, sensor)
		}
		companies = append(companies, c)
	}

	// Every company's master gateway is where its own fleet would home;
	// roaming sensors use whoever is nearby — here, a random foreign
	// gateway.
	for _, c := range companies {
		if len(c.actor.Gateways()) == 0 {
			continue
		}
		master, err := c.actor.MasterGateway()
		if err != nil {
			return err
		}
		fmt.Printf("%-14s master gateway: %s\n", c.name, master.Wallet().Address())
	}
	fmt.Println()

	rng := rand.New(rand.NewSource(7))
	const rounds = 8
	for round := 0; round < rounds; round++ {
		for _, c := range companies {
			for _, sensor := range c.sensors {
				gw := allGateways[rng.Intn(len(allGateways))]
				reading := fmt.Sprintf("r%d", round)
				if _, err := net.RunExchange(sensor, gw, c.rcpt, []byte(reading)); err != nil {
					return fmt.Errorf("%s: %w", c.name, err)
				}
				c.spent++
			}
		}
	}

	fmt.Printf("after %d exchanges:\n\n", rounds*len(companies)*5)
	fmt.Printf("%-14s %9s %10s %12s %14s\n", "company", "gateways", "exchanges", "gw revenue", "net position")
	// One copy for the whole report, so every balance is of the same state.
	utxo := net.Ledger().UTXO()
	price := int(bcwan.DefaultGatewayConfig().Price)
	for _, c := range companies {
		revenue := 0
		for _, gw := range c.actor.Gateways() {
			revenue += int(gw.Wallet().Balance(utxo))
		}
		net := revenue - c.spent*price
		fmt.Printf("%-14s %9d %10d %12d %+14d\n",
			c.name, len(c.actor.Gateways()), c.spent, revenue, net)
	}
	fmt.Println("\ncontributors recoup their spending through deliveries; the")
	fmt.Println("free-rider can only pay — it cannot 'take advantage of foreign")
	fmt.Println("property' without contributing (paper, conclusion).")
	return nil
}
