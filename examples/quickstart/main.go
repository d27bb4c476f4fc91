// Quickstart: one complete BcWAN exchange (the paper's Fig. 3) on an
// in-process network — a provisioned sensor delivers a reading to its
// home recipient through a foreign gateway that is paid on-chain for the
// delivery.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bcwan"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A federation: one blockchain, one authorized miner (the paper's
	// EC2 master role), a treasury that funds actors.
	net, err := bcwan.NewNetwork(bcwan.DefaultNetworkConfig())
	if err != nil {
		return err
	}

	// A foreign gateway — operated by a different party than the data's
	// recipient, and paid per delivery.
	gw, err := net.NewGateway(bcwan.DefaultGatewayConfig())
	if err != nil {
		return err
	}

	// The recipient (home network): funded, and its @R → IP binding
	// published on-chain so any gateway can resolve it (§4.3).
	rcpt, err := net.NewRecipient("203.0.113.20:7000", bcwan.DefaultRecipientConfig())
	if err != nil {
		return err
	}
	fmt.Printf("recipient blockchain address @R: %s\n", rcpt.Address())
	fmt.Printf("recipient published IP binding:  %s\n\n", rcpt.NetAddr())

	// Provisioning phase (§4.4): the sensor gets the shared AES-256 key
	// K, its RSA-512 signing key Sk, and @R.
	sensor, err := rcpt.ProvisionSensor()
	if err != nil {
		return err
	}
	fmt.Printf("sensor %s provisioned\n\n", sensor.EUI())

	// The full Fig. 3 exchange: ephemeral key handout, double
	// encryption + signature, delivery, Listing-1 payment, claim
	// (revealing eSk on-chain), decryption.
	msg, err := net.RunExchange(sensor, gw, rcpt, []byte("21.5C;48%"))
	if err != nil {
		return err
	}

	fmt.Printf("recipient decrypted: %q (from sensor %s)\n", msg.Plaintext, msg.DevEUI)
	fmt.Printf("gateway balance after claim: %d units\n", gw.Wallet().Balance(net.Ledger().Spendable(gw.Wallet().PubKeyHash())))
	fmt.Printf("chain height: %d blocks\n", net.Chain().Height())
	return nil
}
