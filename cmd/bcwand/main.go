// bcwand runs one BcWAN daemon: a blockchain node replicating the chain
// over gossip and serving Multichain-style JSON-RPC, optionally mining
// and optionally acting as a recipient endpoint for gateway deliveries.
//
// Bootstrap a federation on one machine:
//
//	bcwan-keygen -type miner  > miner.json
//	bcwan-keygen -type wallet > treasury.json
//	bcwand -make-genesis -alloc <treasuryHash>=100000000 > genesis.hex
//
//	# master (mines every 15s):
//	bcwand -genesis-file genesis.hex -miner-pub <minerPub> \
//	       -mine -miner-key <minerPriv> -p2p 127.0.0.1:9401 -rpc 127.0.0.1:9501
//
//	# replica:
//	bcwand -genesis-file genesis.hex -miner-pub <minerPub> \
//	       -p2p 127.0.0.1:9402 -rpc 127.0.0.1:9502 -peers 127.0.0.1:9401
//
//	# recipient daemon (deliveries arrive on -p2p; auto-settle):
//	bcwand -genesis-file genesis.hex -miner-pub <minerPub> \
//	       -p2p 127.0.0.1:9403 -peers 127.0.0.1:9401 -recipient
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/daemon"
	"bcwan/internal/recipient"
	"bcwan/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcwand:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcwand", flag.ContinueOnError)
	makeGenesis := fs.Bool("make-genesis", false, "print a genesis block hex for -alloc and exit")
	allocs := fs.String("alloc", "", "genesis allocations: pubKeyHashHex=amount[,..] (with -make-genesis)")
	genesisHex := fs.String("genesis", "", "genesis block hex")
	genesisFile := fs.String("genesis-file", "", "file containing genesis block hex")
	minerPubs := fs.String("miner-pub", "", "authorized miner public keys, hex, comma separated")
	mine := fs.Bool("mine", false, "mine blocks (requires -miner-key)")
	minerKeyHex := fs.String("miner-key", "", "miner EC private key hex (with -mine)")
	interval := fs.Duration("interval", 15*time.Second, "block interval when mining")
	p2pAddr := fs.String("p2p", "127.0.0.1:0", "gossip listen address, which peers must dial as written (not a wildcard like 0.0.0.0)")
	rpcAddr := fs.String("rpc", "127.0.0.1:0", "JSON-RPC listen address")
	peers := fs.String("peers", "", "gossip peers to dial, comma separated")
	recipientMode := fs.Bool("recipient", false, "also act as a recipient, taking gateway deliveries on the -p2p address")
	dataDir := fs.String("datadir", "", "directory to persist the chain across restarts")
	metricsLog := fs.Duration("metrics-log", 0, "periodically log a JSON telemetry snapshot at this interval (0 disables)")
	prune := fs.Int64("prune", 0, "keep only this many recent block bodies; older heights become header-only stubs at each store compaction (0 = keep everything)")
	snapshotInterval := fs.Int64("snapshot-interval", 0, "height spacing of signed snapshot commitments published when mining (0 = default 1024)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// A stray word ends flag parsing, so every later flag would be
		// ignored: most likely an old "-recipient <addr>".
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	logger := log.New(os.Stderr, "bcwand ", log.LstdFlags)

	if *makeGenesis {
		return printGenesis(*allocs)
	}

	genesis, err := loadGenesis(*genesisHex, *genesisFile)
	if err != nil {
		return err
	}
	var miners [][]byte
	for _, h := range splitNonEmpty(*minerPubs) {
		pub, err := hex.DecodeString(h)
		if err != nil {
			return fmt.Errorf("miner-pub %q: %w", h, err)
		}
		miners = append(miners, pub)
	}
	params := chain.DefaultParams()
	params.BlockInterval = *interval

	cfg := daemon.NodeConfig{
		Genesis:      genesis,
		Params:       params,
		Miners:       miners,
		ListenP2P:    *p2pAddr,
		ListenRPC:    *rpcAddr,
		Peers:        splitNonEmpty(*peers),
		MineInterval: *interval,
		Logger:       logger,

		PruneDepth:       *prune,
		SnapshotInterval: *snapshotInterval,
	}
	if *mine {
		if *minerKeyHex == "" {
			return fmt.Errorf("-mine requires -miner-key")
		}
		raw, err := hex.DecodeString(*minerKeyHex)
		if err != nil {
			return fmt.Errorf("miner-key: %w", err)
		}
		key, err := bccrypto.ParseECPrivateKey(raw)
		if err != nil {
			return fmt.Errorf("miner-key: %w", err)
		}
		cfg.MinerKey = key
	}

	node, err := daemon.NewNode(cfg)
	if err != nil {
		return err
	}
	defer node.Close()
	logger.Printf("p2p listening on %s", node.P2PAddr())
	logger.Printf("rpc listening on %s", node.RPCAddr())
	logger.Printf("metrics at http://%s/metrics (Prometheus text) and via the getmetrics RPC", node.RPCAddr())

	if *metricsLog > 0 {
		sl := telemetry.StartSnapshotLogger(node.Telemetry(), logger, *metricsLog)
		defer sl.Stop()
	}

	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o700); err != nil {
			return err
		}
		loaded, err := node.Open(*dataDir)
		if err != nil {
			return fmt.Errorf("restore chain: %w", err)
		}
		logger.Printf("restored %d blocks from %s (height %d)", loaded, *dataDir, node.Chain().Height())
		defer func() {
			if err := node.Store().Compact(node.Chain()); err != nil {
				logger.Printf("compact chain store: %v", err)
			} else {
				logger.Printf("persisted chain at height %d", node.Chain().Height())
			}
		}()
	}

	if *recipientMode {
		rd, err := daemon.NewRecipientDaemon(node, recipient.DefaultConfig(), "", nil, logger)
		if err != nil {
			return err
		}
		defer rd.Close()
		rd.OnReceive(func(m *recipient.Message) {
			logger.Printf("decrypted message from %s: %q", m.DevEUI, m.Plaintext)
		})
		ccfg := daemon.DefaultChannelConfig()
		if *dataDir != "" {
			ccfg.StoreDir = *dataDir + "/channels"
		}
		if _, err := rd.EnableChannels(ccfg); err != nil {
			return fmt.Errorf("enable channels: %w", err)
		}
		logger.Printf("payment channels enabled (openchannel/closechannel RPCs)")
		logger.Printf("recipient @R %s delivering on %s", rd.Recipient.Wallet().Address(), node.P2PAddr())
		logger.Printf("fund the recipient wallet and call PublishBinding via your tooling before exchanges")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Print("shutting down")
	return nil
}

func printGenesis(allocSpec string) error {
	allocations := make(map[[20]byte]uint64)
	for _, part := range splitNonEmpty(allocSpec) {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("alloc %q: want pubKeyHashHex=amount", part)
		}
		raw, err := hex.DecodeString(kv[0])
		if err != nil || len(raw) != 20 {
			return fmt.Errorf("alloc %q: pubkey hash must be 20 hex bytes", part)
		}
		amount, err := strconv.ParseUint(kv[1], 10, 64)
		if err != nil {
			return fmt.Errorf("alloc %q: %w", part, err)
		}
		var hash [20]byte
		copy(hash[:], raw)
		allocations[hash] = amount
	}
	genesis := chain.GenesisBlock(allocations)
	fmt.Println(hex.EncodeToString(genesis.Serialize()))
	return nil
}

func loadGenesis(genesisHex, genesisFile string) (*chain.Block, error) {
	if genesisHex == "" && genesisFile == "" {
		return nil, fmt.Errorf("one of -genesis or -genesis-file is required")
	}
	if genesisFile != "" {
		data, err := os.ReadFile(genesisFile)
		if err != nil {
			return nil, err
		}
		genesisHex = strings.TrimSpace(string(data))
	}
	raw, err := hex.DecodeString(strings.TrimSpace(genesisHex))
	if err != nil {
		return nil, fmt.Errorf("genesis hex: %w", err)
	}
	return chain.DeserializeBlock(raw)
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
