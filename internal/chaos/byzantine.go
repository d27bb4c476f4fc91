package chaos

import (
	"fmt"
	mrand "math/rand"

	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/p2p"
	"bcwan/internal/registry"
	"bcwan/internal/telemetry"
)

// Byzantine is an adversarial gateway: it speaks the honest protocol
// through an embedded gateway actor (so its offers verify and its
// deliveries decrypt) but deviates wherever deviation pays — taking
// payment without disclosing the key, double-selling old deliveries,
// monopolizing a victim's peer slots, or mining a withheld private
// branch. Every deviation is counted in the cluster registry under
// bcwan_chaos_byzantine_attacks_total{kind} so scenarios can assert the
// attack actually ran.
type Byzantine struct {
	c *Cluster
	// Gateway is the inner honest actor, operating on the cluster's
	// adversary wallet. The adversary uses it to produce valid offers;
	// the cheating happens in what it does (or refuses to do) next.
	Gateway *gateway.Gateway
	// Name is the transport identity raw dials are tagged with.
	Name string
	node int
	rng  *mrand.Rand
	// conns holds raw connections opened by Occupy/Spam so Close can
	// release the victim's peer slots.
	conns []p2p.Conn
}

// attack counts one adversarial act in the cluster registry.
func (b *Byzantine) attack(kind string) {
	b.c.Reg.Namespace("chaos").Counter("byzantine_attacks_total",
		"Adversarial acts performed by Byzantine actors, by kind.",
		telemetry.L("kind", kind)).Inc()
}

// ByzantineAttacks reads the cluster-wide count of one attack kind.
func ByzantineAttacks(c *Cluster, kind string) uint64 {
	return c.Reg.Namespace("chaos").Counter("byzantine_attacks_total",
		"Adversarial acts performed by Byzantine actors, by kind.",
		telemetry.L("kind", kind)).Value()
}

// Byzantine builds an adversarial gateway operating through node i's
// ledger on the adversary wallet. Its random stream is derived from the
// cluster seed but independent of every honest actor's, so adding an
// adversary to a scenario never perturbs honest behavior.
func (c *Cluster) Byzantine(i int, cfg gateway.Config) *Byzantine {
	seed := linkSeed(c.Opts.Seed, nodeName(i), "byzantine")
	g := gateway.New(cfg, c.AdversaryWallet, c.Node(i).Ledger(), c.Node(i).Directory(),
		mrand.New(mrand.NewSource(seed)))
	return &Byzantine{
		c:       c,
		Gateway: g,
		Name:    "byz-" + nodeName(i),
		node:    i,
		rng:     mrand.New(mrand.NewSource(linkSeed(seed, "byzantine", "faults"))),
	}
}

// HandleKeyRequest delegates to the honest actor: the sensor-facing
// half of the protocol is played straight so the offers verify.
func (b *Byzantine) HandleKeyRequest(f *lora.Frame) (*lora.Frame, error) {
	return b.Gateway.HandleKeyRequest(f)
}

// HandleData delegates to the honest actor and returns a well-formed,
// correctly signed delivery — the bait for every payment-level attack.
func (b *Byzantine) HandleData(f *lora.Frame) (*fairex.Delivery, string, error) {
	return b.Gateway.HandleData(f)
}

// WithholdClaim records the key-withholding attack: the adversary has a
// confirmed payment it could claim but never discloses eSk, betting the
// recipient forgets to refund. It is a bookkeeping call — the attack IS
// the absence of the claim.
func (b *Byzantine) WithholdClaim() {
	b.attack("withhold-key")
}

// ReplayDelivery returns a fresh copy of a previously sold delivery for
// a double-sell attempt: same ciphertext, same signature (both still
// valid — the offer really was signed by the sensor), hoping the
// recipient pays twice for one reading.
func (b *Byzantine) ReplayDelivery(d *fairex.Delivery) *fairex.Delivery {
	b.attack("replay")
	cp := *d
	return &cp
}

// BadChannelKey returns key bytes that will never verify against the
// delivery's ePk: the adversary countersigns the channel update (so the
// delta is committed) and then discloses junk.
func (b *Byzantine) BadChannelKey() []byte {
	b.attack("bad-channel-key")
	junk := make([]byte, 136)
	b.rng.Read(junk)
	return junk
}

// Occupy claims one peer slot on the victim by dialing it raw and
// introducing itself under the given fake identity. The connection
// filters everything: the adversary never forwards inv, headers or
// block traffic, so a victim whose slots are all Occupied is eclipsed.
// The returned connection is also tracked for Close.
func (b *Byzantine) Occupy(victim, identity string) (p2p.Conn, error) {
	conn, err := b.c.Net.TransportFor(identity).Dial(victim)
	if err != nil {
		return nil, fmt.Errorf("chaos: byzantine dial %s: %v", victim, err)
	}
	// An unknown message type registers the sender as a peer (the
	// gossip layer learns addresses from first contact) without
	// triggering any handler.
	if err := conn.Send(p2p.Message{Type: "byz-hello", From: identity}); err != nil {
		conn.Close()
		return nil, err
	}
	// Drain everything the victim sends and forward nothing — the
	// filtering half of the eclipse.
	go func() {
		for {
			if _, err := conn.Receive(); err != nil {
				return
			}
		}
	}()
	b.conns = append(b.conns, conn)
	b.attack("eclipse-occupy")
	return conn, nil
}

// Spam floods the victim with undecodable frames of a given gossip type
// from an identity the victim already knows. Payloads vary per frame so
// gossip dedup cannot absorb them; each one costs the sender
// misbehavior points at the victim. Send errors are swallowed — the
// victim banning us mid-flood closes the connection, which is the
// outcome the attack is probing for.
func (b *Byzantine) Spam(conn p2p.Conn, identity, msgType string, frames int) {
	for i := 0; i < frames; i++ {
		garbage := make([]byte, 16)
		b.rng.Read(garbage)
		if err := conn.Send(p2p.Message{Type: msgType, From: identity, Payload: garbage}); err != nil {
			break
		}
	}
	b.attack("spam")
}

// Close releases every raw connection the adversary holds open.
func (b *Byzantine) Close() {
	for _, conn := range b.conns {
		conn.Close()
	}
	b.conns = nil
}

// StartPrivateMine partitions the adversary's node away from the rest
// of the cluster so blocks it mines stay withheld.
func (b *Byzantine) StartPrivateMine() {
	rest := make([]string, 0, b.c.Opts.Nodes-1)
	for i := 0; i < b.c.Opts.Nodes; i++ {
		if i != b.node {
			rest = append(rest, nodeName(i))
		}
	}
	b.c.Net.Partition([]string{nodeName(b.node)}, rest)
	b.attack("private-mine")
}

// ReleasePrivateChain heals the partition, springing the withheld
// branch on the honest majority at once.
func (b *Byzantine) ReleasePrivateChain() {
	b.c.Net.Heal()
	b.attack("private-release")
}

// ForgeBinding builds and submits (on the adversary's node) a directory
// record claiming the victim's @R but pointing at the adversary's
// address. The carrying transaction is funded and signed by the
// adversary wallet, so it cannot prove control of @R — an authenticated
// directory must drop it.
func (b *Byzantine) ForgeBinding(victim [20]byte, netAddr string, fee uint64) (*chain.Tx, error) {
	b.attack("forge-binding")
	payload, err := registry.EncodeBinding(victim, netAddr)
	if err != nil {
		return nil, err
	}
	led := b.c.Node(b.node).Ledger()
	tx, err := b.c.AdversaryWallet.BuildDataPublish(led.Spendable(b.c.AdversaryWallet.PubKeyHash()), payload, fee)
	if err != nil {
		return nil, fmt.Errorf("chaos: forge binding: %w", err)
	}
	if err := led.Submit(tx); err != nil {
		return nil, fmt.Errorf("chaos: submit forged binding: %w", err)
	}
	return tx, nil
}
