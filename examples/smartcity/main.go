// Smart-city scenario: the paper's motivating workload — a utility's
// metering fleet roams across gateways owned by other parties. Thirty
// sensors report readings through whichever of three foreign gateways is
// closest; every delivery is paid through the fair exchange, and the run
// ends with a per-gateway revenue statement — the incentive that The
// Things Network and PicoWAN lack (§3).
//
// Run with:
//
//	go run ./examples/smartcity
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bcwan"
)

const (
	sensors         = 30
	gateways        = 3
	readingsPerNode = 3
)

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

	// Three independently owned gateways.
	gws := make([]*bcwan.Gateway, gateways)
	for i := range gws {
		if gws[i], err = net.NewGateway(bcwan.DefaultGatewayConfig()); err != nil {
			return err
		}
	}

	// The utility's home network.
	rcpt, err := net.NewRecipient("203.0.113.30:7000", bcwan.DefaultRecipientConfig())
	if err != nil {
		return err
	}

	fleet := make([]*bcwan.Sensor, sensors)
	for i := range fleet {
		if fleet[i], err = rcpt.ProvisionSensor(); err != nil {
			return err
		}
	}
	fmt.Printf("provisioned %d meters; %d foreign gateways; recipient @R %s\n\n",
		sensors, gateways, rcpt.Address())

	rng := rand.New(rand.NewSource(42))
	delivered := 0
	perGateway := make([]int, gateways)
	for round := 0; round < readingsPerNode; round++ {
		for i, sensor := range fleet {
			// A moving meter reaches a different gateway per reading.
			g := rng.Intn(gateways)
			reading := fmt.Sprintf("kWh=%05.1f", 100+rng.Float64()*50)
			msg, err := net.RunExchange(sensor, gws[g], rcpt, []byte(reading))
			if err != nil {
				return fmt.Errorf("meter %d round %d: %w", i, round, err)
			}
			if string(msg.Plaintext) != reading {
				return fmt.Errorf("meter %d: corrupted reading %q", i, msg.Plaintext)
			}
			delivered++
			perGateway[g]++
		}
	}

	fmt.Printf("delivered %d readings across %d rounds\n\n", delivered, readingsPerNode)
	fmt.Println("gateway settlement (deliveries are paid, §4.1):")
	// One copy for the whole report, so every balance is of the same state.
	utxo := net.Ledger().UTXO()
	for i, gw := range gws {
		fmt.Printf("  gateway %d: %3d deliveries, balance %6d units\n",
			i, perGateway[i], gw.Wallet().Balance(utxo))
	}
	fmt.Printf("\nchain height: %d blocks, recipient balance: %d units\n",
		net.Chain().Height(), rcpt.Wallet().Balance(utxo))
	return nil
}
