package transport

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func newNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func endpoint(t *testing.T, n *Network, id NodeID) *Endpoint {
	t.Helper()
	e, err := n.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{N: 0}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := New(Config{N: 3, MaxPreGSTDelay: -1}); err == nil {
		t.Error("negative delay should fail")
	}
	n := newNet(t, Config{N: 3})
	if _, err := n.Endpoint(3); err == nil {
		t.Error("out-of-range endpoint should fail")
	}
	if _, err := n.PublicKey(-1); err == nil {
		t.Error("out-of-range public key should fail")
	}
}

func TestSynchronousDelivery(t *testing.T) {
	n := newNet(t, Config{N: 3, Mode: Sync, Seed: 1})
	a, b := endpoint(t, n, 0), endpoint(t, n, 1)
	if err := a.Send(1, "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := b.Receive(); len(got) != 0 {
		t.Fatal("message delivered before Step")
	}
	n.Step()
	got := b.Receive()
	if len(got) != 1 || string(got[0].Payload) != "hello" || got[0].From != 0 || got[0].Kind != "ping" {
		t.Fatalf("received %+v", got)
	}
	// Every Receive returns a slice of its own.
	got[0].From, got[0].Kind = 2, "rewritten"
	if again := b.Receive(); len(again) != 1 || again[0].From != 0 || again[0].Kind != "ping" {
		t.Fatalf("second Receive saw the first one's rewrite: %+v", again)
	}
	// Inbox cleared next round.
	n.Step()
	if got := b.Receive(); len(got) != 0 {
		t.Fatal("stale inbox")
	}
	stats := n.Stats()
	if stats.MessagesDelivered != 1 || stats.BytesDelivered != 5 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestBroadcastExcludesSelf(t *testing.T) {
	n := newNet(t, Config{N: 4, Mode: Sync, Seed: 2})
	a := endpoint(t, n, 0)
	if err := a.Broadcast("blob", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	n.Step()
	if got := a.Receive(); len(got) != 0 {
		t.Error("broadcast delivered to self")
	}
	for id := NodeID(1); id < 4; id++ {
		if got := endpoint(t, n, id).Receive(); len(got) != 1 {
			t.Errorf("node %d received %d messages", id, len(got))
		}
	}
}

func TestForgeryDropped(t *testing.T) {
	// Node 2 (Byzantine) tries to inject a message claiming to be node 0.
	n := newNet(t, Config{N: 3, Mode: Sync, Seed: 4})
	forged := Message{From: 0, To: 1, Round: n.Round(), Kind: "k", Payload: []byte("fake")}
	n.Inject(forged)
	n.Step()
	if got := endpoint(t, n, 1).Receive(); len(got) != 0 {
		t.Fatal("forged message delivered")
	}
	if n.Stats().ForgeriesDropped != 1 {
		t.Errorf("forgeries dropped = %d", n.Stats().ForgeriesDropped)
	}
	// From out of range is also a forgery.
	n.Inject(Message{From: 99, To: 1, Round: n.Round(), Kind: "k"})
	if n.Stats().ForgeriesDropped != 2 {
		t.Error("out-of-range sender not dropped")
	}
}

// TestInjectOutOfRangeRecipientDropped: what a sender vouches for does
// not cover To, so a genuine message can be re-addressed. One addressed
// past the last node used to be scheduled and then crash Step, which
// indexes the down table by recipient, when its delivery round came.
func TestInjectOutOfRangeRecipientDropped(t *testing.T) {
	n := newNet(t, Config{N: 4, Mode: PartialSync, GST: 100, Seed: 12,
		DelayFn: func(from, to NodeID, round int) int { return 3 }})
	a := endpoint(t, n, 0)
	if err := a.Send(1, "k", []byte("x")); err != nil { // due at round 3
		t.Fatal(err)
	}
	// The content node 0 sent this round, addressed past either end of the
	// roster.
	round := n.Round()
	for _, to := range []NodeID{9, -1} {
		n.Inject(Message{From: 0, To: to, Round: round, Kind: "k", Payload: []byte("x")})
	}
	for r := 0; r < 4; r++ {
		n.Step()
	}
	if st := n.Stats(); st.ForgeriesDropped != 2 || st.MessagesDelivered != 1 {
		t.Fatalf("stats %+v, want 2 forgeries dropped and the one send delivered", st)
	}
}

// TestInjectStaleReplayDropped: replaying a delivered message after its
// delivery round used to park it in pending for good, since Step only
// ever looks at the round it advances to.
func TestInjectStaleReplayDropped(t *testing.T) {
	n := newNet(t, Config{N: 3, Mode: Sync, Seed: 13})
	if err := endpoint(t, n, 0).Send(1, "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Step()
	got := endpoint(t, n, 1).Receive()
	if len(got) != 1 {
		t.Fatalf("received %+v", got)
	}
	n.Inject(got[0])
	n.Step()
	n.Inject(got[0])
	if st := n.Stats(); st.ForgeriesDropped != 2 {
		t.Fatalf("ForgeriesDropped = %d, want 2", st.ForgeriesDropped)
	}
	if len(n.pending) != 0 {
		t.Fatalf("replays parked in pending for rounds %v", n.pending)
	}
}

func TestPartialSyncDelaysBeforeGST(t *testing.T) {
	const gst = 10
	n := newNet(t, Config{N: 2, Mode: PartialSync, GST: gst, MaxPreGSTDelay: 5, Seed: 5})
	a, b := endpoint(t, n, 0), endpoint(t, n, 1)
	if err := a.Send(1, "early", nil); err != nil {
		t.Fatal(err)
	}
	// The message must arrive within 1+MaxPreGSTDelay rounds, not
	// necessarily the next one.
	arrived := -1
	for r := 1; r <= 6; r++ {
		n.Step()
		if len(b.Receive()) > 0 {
			arrived = r
			break
		}
	}
	if arrived < 1 {
		t.Fatal("pre-GST message never arrived")
	}
	// After GST, delivery is next-round.
	for n.Round() < gst {
		n.Step()
	}
	if err := a.Send(1, "late", nil); err != nil {
		t.Fatal(err)
	}
	n.Step()
	got := b.Receive()
	if len(got) != 1 || got[0].Kind != "late" {
		t.Fatalf("post-GST message not delivered next round: %+v", got)
	}
}

func TestPartialSyncAdversarialDelayFn(t *testing.T) {
	// The adversary holds every pre-GST message for exactly 4 rounds.
	n := newNet(t, Config{
		N: 2, Mode: PartialSync, GST: 100, MaxPreGSTDelay: 5, Seed: 6,
		DelayFn: func(from, to NodeID, round int) int { return 4 },
	})
	a, b := endpoint(t, n, 0), endpoint(t, n, 1)
	if err := a.Send(1, "held", nil); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		n.Step()
		if len(b.Receive()) != 0 {
			t.Fatalf("delivered at round %d, expected 4", r)
		}
	}
	n.Step()
	if len(b.Receive()) != 1 {
		t.Fatal("not delivered at round 4")
	}
}

// deliverySchedule sends count pre-GST messages 0->1 one round apart and
// records each message's delivery round (identified by its payload byte).
func deliverySchedule(t *testing.T, n *Network, count int) map[byte]int {
	t.Helper()
	a, b := endpoint(t, n, 0), endpoint(t, n, 1)
	arrived := make(map[byte]int, count)
	for r := 0; r < count+16; r++ {
		if r < count {
			if err := a.Send(1, "m", []byte{byte(r)}); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
		for _, m := range b.Receive() {
			arrived[m.Payload[0]] = n.Round()
		}
	}
	if len(arrived) != count {
		t.Fatalf("only %d/%d messages arrived", len(arrived), count)
	}
	return arrived
}

func TestDelayFnDoesNotConsumeRNG(t *testing.T) {
	// Regression: deliveryRound used to draw from the seeded RNG even when
	// cfg.DelayFn overrode the delay. The RNG must be consumed only on the
	// random-delay path, so a DelayFn-scheduled network draws nothing.
	cfg := Config{N: 2, Mode: PartialSync, GST: 100, MaxPreGSTDelay: 5, Seed: 11}
	random := newNet(t, cfg)
	deliverySchedule(t, random, 20)
	if got := random.Stats().RandomDelays; got != 20 {
		t.Fatalf("random path drew %d delays, want 20", got)
	}
	cfg.DelayFn = func(from, to NodeID, round int) int { return 1 + round%3 }
	overridden := newNet(t, cfg)
	deliverySchedule(t, overridden, 20)
	if got := overridden.Stats().RandomDelays; got != 0 {
		t.Fatalf("DelayFn path consumed %d RNG delays, want 0", got)
	}
}

func TestSeedReproducibilityBothPaths(t *testing.T) {
	// Both pre-GST scheduling paths must be exactly reproducible under the
	// same seed: the random path (seeded RNG) and the DelayFn path
	// (adversary-chosen). The DelayFn schedule must also follow the
	// function exactly, unperturbed by the seed.
	base := Config{N: 2, Mode: PartialSync, GST: 100, MaxPreGSTDelay: 5, Seed: 123}
	randA := deliverySchedule(t, newNet(t, base), 24)
	randB := deliverySchedule(t, newNet(t, base), 24)
	for id, round := range randA {
		if randB[id] != round {
			t.Fatalf("random path not seed-reproducible: msg %d at round %d vs %d", id, round, randB[id])
		}
	}
	fn := func(from, to NodeID, round int) int { return 1 + (round*7)%4 }
	cfgFn := base
	cfgFn.DelayFn = fn
	fnA := deliverySchedule(t, newNet(t, cfgFn), 24)
	cfgFn.Seed = 999 // the DelayFn path must not depend on the seed at all
	fnB := deliverySchedule(t, newNet(t, cfgFn), 24)
	for id, round := range fnA {
		want := int(id) + fn(0, 1, int(id))
		if round != want {
			t.Fatalf("DelayFn schedule violated: msg %d delivered at %d, want %d", id, round, want)
		}
		if fnB[id] != round {
			t.Fatalf("DelayFn path not reproducible across seeds: msg %d at %d vs %d", id, round, fnB[id])
		}
	}
}

func TestDelayDeterministic(t *testing.T) {
	sync := newNet(t, Config{N: 2, Mode: Sync, Seed: 1})
	if !sync.delayDeterministic(0) {
		t.Error("synchronous networks always schedule deterministically")
	}
	psync := newNet(t, Config{N: 2, Mode: PartialSync, GST: 10, Seed: 1})
	if psync.delayDeterministic(5) {
		t.Error("pre-GST random delays consume the sequential RNG")
	}
	if !psync.delayDeterministic(10) {
		t.Error("post-GST delivery is fixed one-round latency")
	}
	withFn := newNet(t, Config{
		N: 2, Mode: PartialSync, GST: 10, Seed: 1,
		DelayFn: func(from, to NodeID, round int) int { return 2 },
	})
	if withFn.delayDeterministic(5) {
		t.Error("a DelayFn may be stateful: pre-GST sends must stay in program order")
	}
	if !withFn.delayDeterministic(10) {
		t.Error("post-GST delivery is fixed even with a DelayFn installed")
	}
}

func TestNoEquivocationCoercesPayloads(t *testing.T) {
	// In broadcast mode a Byzantine node sending different payloads to
	// different peers in the same round has its later payloads replaced by
	// the first (everyone hears the same value).
	n := newNet(t, Config{N: 3, Mode: Sync, NoEquivocation: true, Seed: 7})
	byz := endpoint(t, n, 0)
	if err := byz.Send(1, "val", []byte("AAA")); err != nil {
		t.Fatal(err)
	}
	if err := byz.Send(2, "val", []byte("BBB")); err != nil {
		t.Fatal(err)
	}
	// The channel vouches for the coerced copy and not for the second
	// payload: an injected copy of the one is admitted, of the other not.
	round := n.Round()
	n.Inject(Message{From: 0, To: 2, Round: round, Kind: "val", Payload: []byte("AAA")})
	n.Inject(Message{From: 0, To: 2, Round: round, Kind: "val", Payload: []byte("BBB")})
	if st := n.Stats(); st.ForgeriesDropped != 1 {
		t.Fatalf("ForgeriesDropped = %d, want 1: the coerced copy admitted, the second payload refused", st.ForgeriesDropped)
	}
	n.Step()
	m1 := endpoint(t, n, 1).Receive()
	m2 := endpoint(t, n, 2).Receive()
	if len(m1) != 1 || len(m2) != 2 {
		t.Fatal("missing deliveries")
	}
	for _, m := range append(m1, m2...) {
		if string(m.Payload) != "AAA" {
			t.Fatalf("equivocation not suppressed: %q delivered to node %d", m.Payload, m.To)
		}
	}
}

func TestEquivocationAllowedInP2P(t *testing.T) {
	n := newNet(t, Config{N: 3, Mode: Sync, NoEquivocation: false, Seed: 8})
	byz := endpoint(t, n, 0)
	if err := byz.Send(1, "val", []byte("AAA")); err != nil {
		t.Fatal(err)
	}
	if err := byz.Send(2, "val", []byte("BBB")); err != nil {
		t.Fatal(err)
	}
	n.Step()
	m1 := endpoint(t, n, 1).Receive()
	m2 := endpoint(t, n, 2).Receive()
	if string(m1[0].Payload) != "AAA" || string(m2[0].Payload) != "BBB" {
		t.Fatal("point-to-point network must permit equivocation")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Message {
		n := newNet(t, Config{N: 4, Mode: PartialSync, GST: 8, Seed: 99})
		var all []Message
		for r := 0; r < 12; r++ {
			for id := NodeID(0); id < 4; id++ {
				e := endpoint(t, n, id)
				_ = e.Broadcast("r", []byte{byte(r), byte(id)})
			}
			n.Step()
			for id := NodeID(0); id < 4; id++ {
				all = append(all, endpoint(t, n, id).Receive()...)
			}
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic message counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || a[i].Round != b[i].Round ||
			string(a[i].Payload) != string(b[i].Payload) {
			t.Fatalf("divergence at message %d", i)
		}
	}
}

func TestModeString(t *testing.T) {
	if Sync.String() != "synchronous" || PartialSync.String() != "partially-synchronous" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestSendValidation(t *testing.T) {
	n := newNet(t, Config{N: 2, Seed: 10})
	a := endpoint(t, n, 0)
	if err := a.Send(5, "k", nil); err == nil {
		t.Error("out-of-range recipient should fail")
	}
	if a.ID() != 0 {
		t.Error("ID accessor wrong")
	}
}

func TestDownNodeDropsTraffic(t *testing.T) {
	n := newNet(t, Config{N: 3, Seed: 4})
	a, b, c := endpoint(t, n, 0), endpoint(t, n, 1), endpoint(t, n, 2)
	if err := n.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	if !n.Down(1) || n.Down(0) {
		t.Fatal("down state wrong")
	}
	// To the down node and from the down node: dropped before scheduling.
	if err := a.Send(1, "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(2, "k", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "k", []byte("z")); err != nil {
		t.Fatal(err)
	}
	n.Step()
	if got := b.Receive(); len(got) != 0 {
		t.Fatalf("down node received %d messages", len(got))
	}
	if got := c.Receive(); len(got) != 1 || string(got[0].Payload) != "z" {
		t.Fatalf("live traffic disturbed: %v", got)
	}
	if st := n.Stats(); st.DroppedDown != 2 {
		t.Fatalf("DroppedDown = %d, want 2", st.DroppedDown)
	}
	// Back up: traffic flows again.
	if err := n.SetDown(1, false); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, "k", []byte("w")); err != nil {
		t.Fatal(err)
	}
	n.Step()
	if got := b.Receive(); len(got) != 1 || string(got[0].Payload) != "w" {
		t.Fatalf("recovered node got %v", got)
	}
	if err := n.SetDown(7, true); err == nil {
		t.Fatal("out-of-range SetDown should fail")
	}
}

// TestDownNodeDropsInFlightAtDelivery: a broadcast in flight when one of
// its recipients crashes still reaches the others, and the crashed one
// loses its copy at Step. What a round delivers is fixed at Step: a
// SetDown between Step and the read changes neither the deliveries nor
// the Stats.
func TestDownNodeDropsInFlightAtDelivery(t *testing.T) {
	n := newNet(t, Config{N: 3, Seed: 4})
	if err := endpoint(t, n, 0).Broadcast("k", []byte("x")); err != nil { // in flight
		t.Fatal(err)
	}
	if err := n.SetDown(1, true); err != nil { // a recipient crashes
		t.Fatal(err)
	}
	n.Step()
	want := n.Stats()
	if want.DroppedDown != 1 || want.MessagesDelivered != 1 {
		t.Fatalf("stats %+v, want one copy dropped and one delivered", want)
	}
	if err := n.SetDown(1, false); err != nil {
		t.Fatal(err)
	}
	if err := n.SetDown(2, true); err != nil {
		t.Fatal(err)
	}
	if got := endpoint(t, n, 1).Receive(); len(got) != 0 {
		t.Fatalf("crashed node received %d in-flight messages", len(got))
	}
	if got := slices.Collect(endpoint(t, n, 2).Deliveries()); len(got) != 1 || got[0].To != 2 || string(got[0].Payload) != "x" {
		t.Fatalf("node 2, down only after Step, received %+v", got)
	}
	if st := n.Stats(); st != want {
		t.Fatalf("stats moved after Step: %+v, want %+v", st, want)
	}
}

// TestDownDropPreservesDelayStream: drops happen before the delay draw,
// so a down node's (non-)traffic never shifts the seeded random delays of
// the surviving nodes.
func TestDownDropPreservesDelayStream(t *testing.T) {
	run := func(withDownSender bool) []Message {
		n := newNet(t, Config{N: 3, Mode: PartialSync, GST: 100, Seed: 21})
		if withDownSender {
			if err := n.SetDown(2, true); err != nil {
				t.Fatal(err)
			}
		}
		a, c := endpoint(t, n, 0), endpoint(t, n, 2)
		var all []Message
		for r := 0; r < 6; r++ {
			if withDownSender {
				_ = c.Send(0, "noise", []byte("dropped")) // must not draw a delay
			}
			_ = a.Send(1, "k", []byte{byte(r)})
			n.Step()
			all = append(all, endpoint(t, n, 1).Receive()...)
		}
		return all
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("delay stream shifted: %d vs %d deliveries", len(a), len(b))
	}
	for i := range a {
		if a[i].Round != b[i].Round || string(a[i].Payload) != string(b[i].Payload) {
			t.Fatalf("delivery %d differs: round %d vs %d", i, a[i].Round, b[i].Round)
		}
	}
}

// serialDeriveKeys is the key derivation spelled out, the reference
// DeriveKeys must reproduce.
func serialDeriveKeys(clusterSeed uint64, n int) ([]ed25519.PublicKey, []ed25519.PrivateKey) {
	pubs := make([]ed25519.PublicKey, n)
	privs := make([]ed25519.PrivateKey, n)
	for i := 0; i < n; i++ {
		seed := make([]byte, ed25519.SeedSize)
		binary.LittleEndian.PutUint64(seed, clusterSeed^uint64(i)+0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(seed[8:], uint64(i)*0xbf58476d1ce4e5b9+1)
		privs[i] = ed25519.NewKeyFromSeed(seed)
		pubs[i] = privs[i].Public().(ed25519.PublicKey)
	}
	return pubs, privs
}

// TestDeriveKeysMatchesSerial: the cluster's keys equal the spelled-out
// derivation at every size, and at N=64, seed 1711 (sim-honest's cluster)
// a digest taken from it.
func TestDeriveKeysMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 4, 64} {
		pubs, privs := DeriveKeys(1711, n)
		wantPubs, wantPrivs := serialDeriveKeys(1711, n)
		if !reflect.DeepEqual(pubs, wantPubs) || !reflect.DeepEqual(privs, wantPrivs) {
			t.Errorf("n=%d: keys differ from the serial derivation", n)
		}
	}
	pubs, privs := DeriveKeys(1711, 64)
	h := sha256.New()
	for i := range pubs {
		h.Write(privs[i])
		h.Write(pubs[i])
	}
	const golden = "63a5cd5c115c9b1bbd0a0973a9becf128503c06d30df269255ec63d555086541"
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("DeriveKeys(1711, 64) digest %s, want %s", got, golden)
	}
}

// TestKeysDerivedOnFirstUse: New derives no key, and whichever of
// SignBlob, VerifyBlob and PublicKey is called first derives exactly
// DeriveKeys's keys, once, however many goroutines call it at once (run
// it under -race).
func TestKeysDerivedOnFirstUse(t *testing.T) {
	const n, seed = 5, 1711
	wantPubs, wantPrivs := DeriveKeys(seed, n)
	msg := []byte("blob")
	for _, first := range []string{"SignBlob", "VerifyBlob", "PublicKey"} {
		net := newNet(t, Config{N: n, Mode: Sync, Seed: seed})
		if net.pubs != nil || net.privs != nil {
			t.Fatalf("%s: New derived keys", first)
		}
		var wg sync.WaitGroup
		for id := range NodeID(n) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch first {
				case "SignBlob":
					endpoint(t, net, id).SignBlob("ctx", msg)
				case "VerifyBlob":
					net.VerifyBlob(id, "ctx", msg, nil)
				case "PublicKey":
					if _, err := net.PublicKey(id); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(net.pubs, wantPubs) || !reflect.DeepEqual(net.privs, wantPrivs) {
			t.Fatalf("%s first: keys differ from DeriveKeys's", first)
		}
		for id := range NodeID(n) {
			sig := endpoint(t, net, id).SignBlob("ctx", msg)
			if !slices.Equal(sig, ed25519.Sign(wantPrivs[id], blobBytes("ctx", msg))) || !net.VerifyBlob(id, "ctx", msg, sig) {
				t.Fatalf("%s first: node %d signs or verifies unlike DeriveKeys's key", first, id)
			}
			if pub, err := net.PublicKey(id); err != nil || !pub.Equal(wantPubs[id]) {
				t.Fatalf("%s first: node %d public key %x, %v", first, id, pub, err)
			}
		}
	}
}
