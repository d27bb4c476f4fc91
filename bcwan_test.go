package bcwan

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"
)

func testNetwork(t *testing.T) *Network {
	t.Helper()
	net, err := NewNetwork(DefaultNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestQuickstartFlow(t *testing.T) {
	net := testNetwork(t)
	gw, err := net.NewGateway(DefaultGatewayConfig())
	if err != nil {
		t.Fatal(err)
	}
	rcpt, err := net.NewRecipient("192.0.2.9:7000", DefaultRecipientConfig())
	if err != nil {
		t.Fatal(err)
	}
	sensor, err := rcpt.ProvisionSensor()
	if err != nil {
		t.Fatal(err)
	}

	msg, err := net.RunExchange(sensor, gw, rcpt, []byte("21.5C"))
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Plaintext) != "21.5C" {
		t.Fatalf("plaintext = %q", msg.Plaintext)
	}
	// The gateway earned the price minus its claim fee.
	if got := gw.Wallet().Balance(net.Ledger().UTXO()); got == 0 {
		t.Fatal("gateway not paid")
	}
}

// TestSeededNetworkIsRaceFree runs exchanges on a network seeded with a
// *math/rand.Rand, which is not safe for concurrent use, while the
// gateway's key pool refills from the same source on its own goroutine.
// Under -race it fails unless NewNetwork serializes the reader.
func TestSeededNetworkIsRaceFree(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Random = mrand.New(mrand.NewSource(1))
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := net.NewGateway(DefaultGatewayConfig())
	if err != nil {
		t.Fatal(err)
	}
	rcpt, err := net.NewRecipient("192.0.2.9:7000", DefaultRecipientConfig())
	if err != nil {
		t.Fatal(err)
	}
	sensor, err := rcpt.ProvisionSensor()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		reading := fmt.Sprintf("reading-%d", i)
		msg, err := net.RunExchange(sensor, gw, rcpt, []byte(reading))
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if string(msg.Plaintext) != reading {
			t.Fatalf("exchange %d plaintext = %q", i, msg.Plaintext)
		}
	}
}

func TestMultipleSensorsAndGateways(t *testing.T) {
	net := testNetwork(t)
	rcpt, err := net.NewRecipient("192.0.2.9:7000", DefaultRecipientConfig())
	if err != nil {
		t.Fatal(err)
	}
	gws := make([]*Gateway, 2)
	for i := range gws {
		gws[i], err = net.NewGateway(DefaultGatewayConfig())
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		sensor, err := rcpt.ProvisionSensor()
		if err != nil {
			t.Fatal(err)
		}
		// Roaming: alternate gateways.
		msg, err := net.RunExchange(sensor, gws[i%2], rcpt, []byte{byte('0' + i)})
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if msg.Plaintext[0] != byte('0'+i) {
			t.Fatalf("exchange %d plaintext = %q", i, msg.Plaintext)
		}
	}
}

func TestSensorsGetDistinctEUIs(t *testing.T) {
	net := testNetwork(t)
	rcpt, err := net.NewRecipient("192.0.2.9:7000", DefaultRecipientConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := rcpt.ProvisionSensor()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rcpt.ProvisionSensor()
	if err != nil {
		t.Fatal(err)
	}
	if a.EUI() == b.EUI() {
		t.Fatal("duplicate EUIs")
	}
}

func TestRecipientAddressResolvable(t *testing.T) {
	net := testNetwork(t)
	rcpt, err := net.NewRecipient("198.51.100.4:7001", DefaultRecipientConfig())
	if err != nil {
		t.Fatal(err)
	}
	binding, err := net.Directory().Lookup(rcpt.Wallet().PubKeyHash())
	if err != nil {
		t.Fatal(err)
	}
	if binding.NetAddr != "198.51.100.4:7001" {
		t.Fatalf("resolved %q", binding.NetAddr)
	}
	if rcpt.Address() == "" {
		t.Fatal("empty @R address")
	}
}

func TestExchangeFailureWrapsSentinel(t *testing.T) {
	net := testNetwork(t)
	gw, err := net.NewGateway(DefaultGatewayConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Recipient that refuses the price.
	cfg := DefaultRecipientConfig()
	cfg.MaxPrice = 0
	rcpt, err := net.NewRecipient("192.0.2.9:7000", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sensor, err := rcpt.ProvisionSensor()
	if err != nil {
		t.Fatal(err)
	}
	_, err = net.RunExchange(sensor, gw, rcpt, []byte("x"))
	if !errors.Is(err, ErrExchangeIncomplete) {
		t.Fatalf("err = %v, want ErrExchangeIncomplete", err)
	}
}

func TestNetworkDefaultsApplied(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if net.Chain().Params().BlockInterval <= 0 {
		t.Fatal("block interval default not applied")
	}
	if _, err := net.MineBlock(); err != nil {
		t.Fatal(err)
	}
}

func TestFundMovesTreasuryMoney(t *testing.T) {
	net := testNetwork(t)
	rcpt, err := net.NewRecipient("192.0.2.9:7000", DefaultRecipientConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Funded with 1,000,000, minus the 1-unit fee of the IP-binding
	// publish transaction.
	if got := rcpt.Wallet().Balance(net.Ledger().UTXO()); got != 1_000_000-1 {
		t.Fatalf("recipient balance = %d, want 999999", got)
	}
}

func TestActorMasterGatewayElection(t *testing.T) {
	net := testNetwork(t)
	actor := net.NewActor("acme")
	if _, err := actor.MasterGateway(); err == nil {
		t.Fatal("election with no gateways succeeded")
	}
	for i := 0; i < 3; i++ {
		if _, err := actor.AddGateway(DefaultGatewayConfig()); err != nil {
			t.Fatal(err)
		}
	}
	master, err := actor.MasterGateway()
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic: repeated elections agree.
	again, err := actor.MasterGateway()
	if err != nil {
		t.Fatal(err)
	}
	if master != again {
		t.Fatal("election not deterministic")
	}
	// The winner has the smallest pubkey hash.
	best := master.Wallet().PubKeyHash()
	for _, gw := range actor.Gateways() {
		h := gw.Wallet().PubKeyHash()
		for i := range h {
			if h[i] != best[i] {
				if h[i] < best[i] {
					t.Fatal("election did not pick the smallest hash")
				}
				break
			}
		}
	}
	if len(actor.Gateways()) != 3 {
		t.Fatalf("gateways = %d", len(actor.Gateways()))
	}
}

func TestRunExchangeWithConfirmationPolicy(t *testing.T) {
	net := testNetwork(t)
	cfg := DefaultGatewayConfig()
	cfg.WaitConfirmations = 1
	gw, err := net.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcpt, err := net.NewRecipient("192.0.2.9:7000", DefaultRecipientConfig())
	if err != nil {
		t.Fatal(err)
	}
	sensor, err := rcpt.ProvisionSensor()
	if err != nil {
		t.Fatal(err)
	}
	// RunExchange claims before mining, so a confirmation-requiring
	// gateway refuses: the public API surfaces the incomplete exchange.
	if _, err := net.RunExchange(sensor, gw, rcpt, []byte("x")); !errors.Is(err, ErrExchangeIncomplete) {
		t.Fatalf("err = %v, want ErrExchangeIncomplete", err)
	}
}
