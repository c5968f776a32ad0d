package transport

import (
	"bytes"
	"crypto/ed25519"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reservePorts grabs n distinct localhost listen addresses by briefly
// binding port 0. The listeners are closed before returning, so the
// addresses are free for the nodes to bind (a small reuse race CI has to
// live with — the alternative is a config file format that cannot name
// ports up front).
func reservePorts(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// startTCPCluster brings up an n-node in-process TCP cluster.
func startTCPCluster(t testing.TB, n int, seed uint64) []Link {
	t.Helper()
	addrs := reservePorts(t, n)
	return startTCPClusterAt(t, seed, addrs, func(*TCPConfig) {})
}

// startTCPClusterAt brings up one node per listen address; tweak may
// adjust each node's config (its Peers slice is the node's own copy).
func startTCPClusterAt(t testing.TB, seed uint64, addrs []string, tweak func(*TCPConfig)) []Link {
	t.Helper()
	n := len(addrs)
	links := make([]Link, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := TCPConfig{
				Self: NodeID(i), N: n, Seed: seed,
				Listen: addrs[i], Peers: append([]string(nil), addrs...),
				DialTimeout: 10 * time.Second, StepTimeout: 10 * time.Second,
			}
			tweak(&cfg)
			tcp, err := NewTCP(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			links[i] = tcp
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, l := range links {
			if l != nil {
				l.Close()
			}
		}
	})
	return links
}

// delivery is the observable content of one delivered message.
type delivery struct {
	Round   int
	From    NodeID
	Kind    string
	Payload string
}

func deliveries(msgs []Message) []delivery {
	out := make([]delivery, len(msgs))
	for i, m := range msgs {
		out[i] = delivery{Round: m.Round, From: m.From, Kind: m.Kind, Payload: string(m.Payload)}
	}
	return out
}

// driveExchange runs the same small protocol over any Link
// implementation: every node broadcasts a round-stamped payload each
// round and sends a point-to-point message to its successor, for the
// given number of rounds. atRound, when non-nil, runs on each node's
// goroutine at the start of each of its rounds (fault injection). It
// returns each node's full delivery sequence.
func driveExchange(t *testing.T, links []Link, rounds int, atRound func(node, round int)) [][]delivery {
	t.Helper()
	n := len(links)
	out := make([][]delivery, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, l := range links {
		wg.Add(1)
		go func(i int, l Link) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if atRound != nil {
					atRound(i, r)
				}
				if err := l.Broadcast("bcast", fmt.Appendf(nil, "b/%d/%d", i, r)); err != nil {
					errs[i] = err
					return
				}
				succ := NodeID((i + 1) % n)
				if err := l.Send(succ, "p2p", fmt.Appendf(nil, "p/%d/%d", i, r)); err != nil {
					errs[i] = err
					return
				}
				msgs, err := l.Step()
				if err != nil {
					errs[i] = err
					return
				}
				out[i] = append(out[i], deliveries(msgs)...)
			}
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return out
}

// simulatedExchange is driveExchange over the deterministic in-memory
// oracle.
func simulatedExchange(t *testing.T, n, rounds int, seed uint64) [][]delivery {
	t.Helper()
	sim, err := New(Config{N: n, Mode: Sync, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	simLinks, err := NewLocalLinks(sim)
	if err != nil {
		t.Fatal(err)
	}
	return driveExchange(t, simLinks, rounds, nil)
}

func requireSameDeliveries(t *testing.T, got, want [][]delivery) {
	t.Helper()
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("node %d: TCP delivered %d messages, oracle %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("node %d delivery %d: TCP %+v, oracle %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestTCPDeliveryMatchesSimulatedOracle is the transport-equivalence
// contract: the same protocol driven over real localhost sockets delivers
// exactly the messages, in exactly the order, that the deterministic
// in-memory oracle delivers.
func TestTCPDeliveryMatchesSimulatedOracle(t *testing.T) {
	const n, rounds, seed = 4, 3, 1234
	want := simulatedExchange(t, n, rounds, seed)
	got := driveExchange(t, startTCPCluster(t, n, seed), rounds, nil)
	requireSameDeliveries(t, got, want)
}

// session returns the node's current session with peer (nil while it
// is down).
func session(tcp *TCP, peer NodeID) net.Conn {
	p := tcp.peers[peer]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// heldSessions returns the sessions the node holds, one per peer
// (NewTCP returns once they are all installed).
func heldSessions(t *testing.T, tcp *TCP) []net.Conn {
	t.Helper()
	var conns []net.Conn
	for id := range tcp.peers {
		if NodeID(id) == tcp.cfg.Self {
			continue
		}
		c := session(tcp, NodeID(id))
		if c == nil {
			t.Fatalf("node %d holds no session with node %d", tcp.cfg.Self, id)
		}
		conns = append(conns, c)
	}
	return conns
}

// TestTCPMeshSessions counts the TLS sessions a settled N-node mesh
// established. Both ends of one session export the same keying material
// and no two sessions do, so the distinct exports are the handshakes the
// mesh paid for; each one must be held at both of its ends.
func TestTCPMeshSessions(t *testing.T) {
	for _, tc := range []struct{ n, sessions int }{{2, 1}, {4, 6}, {7, 21}} {
		t.Run(fmt.Sprintf("N=%d", tc.n), func(t *testing.T) {
			ends := map[string]int{}
			for _, l := range startTCPCluster(t, tc.n, 61) {
				for _, c := range heldSessions(t, l.(*TCP)) {
					cs := c.(*tls.Conn).ConnectionState()
					key, err := cs.ExportKeyingMaterial("codedsm session count", nil, 32)
					if err != nil {
						t.Fatal(err)
					}
					ends[string(key)]++
				}
			}
			if len(ends) != tc.sessions {
				t.Errorf("%d TLS sessions in an N=%d mesh, want %d", len(ends), tc.n, tc.sessions)
			}
			for _, held := range ends {
				if held != 2 {
					t.Fatalf("a session is held at %d ends, want 2", held)
				}
			}
		})
	}
}

// TestTCPReconnectMatchesSimulatedOracle kills sessions mid-run, from
// both ends: every node closes its session with its successor before
// round 1 (node 3's end of that pair is the acceptor's, the others the
// dialer's), and node 0 closes its session with node 2 before round 2.
// Whichever end closes, the dialer must see the session end, redial and
// authenticate a fresh one, both ends must replay onto it — and the
// deliveries must still equal the oracle's, nothing lost and nothing
// doubled.
func TestTCPReconnectMatchesSimulatedOracle(t *testing.T) {
	const n, rounds, seed = 4, 6, 4321
	want := simulatedExchange(t, n, rounds, seed)
	links := startTCPCluster(t, n, seed)
	first := make([]net.Conn, n) // each node's original session with its successor
	for i, l := range links {
		first[i] = session(l.(*TCP), NodeID((i+1)%n))
	}
	node0 := links[0].(*TCP)
	toNode2 := session(node0, 2)
	got := driveExchange(t, links, rounds, func(node, round int) {
		switch {
		case round == 1:
			first[node].Close()
		case round == 2 && node == 0:
			toNode2.Close()
		}
	})
	requireSameDeliveries(t, got, want)
	for i, l := range links {
		if session(l.(*TCP), NodeID((i+1)%n)) == first[i] {
			t.Errorf("node %d still holds the session the test closed; the pair's session was never replaced", i)
		}
	}
	if session(node0, 2) == toNode2 {
		t.Error("node 0 still holds its closed session with node 2")
	}
	if got := node0.Stats().ForgeriesDropped; got != 0 {
		t.Errorf("replay over the fresh sessions counted %d forgeries", got)
	}
}

// TestTCPSimulationOnlyKnobs pins the typed error: crash injection is an
// oracle-only knob and must fail loudly on the production transport
// rather than silently no-op.
func TestTCPSimulationOnlyKnobs(t *testing.T) {
	links := startTCPCluster(t, 2, 5)
	err := links[0].SetDown(1, true)
	if err == nil {
		t.Fatal("SetDown on the TCP transport succeeded; want ErrSimulationOnly")
	}
	if !errors.Is(err, ErrSimulationOnly) {
		t.Fatalf("SetDown error %v does not wrap ErrSimulationOnly", err)
	}
}

// TestTCPDialRetriesUntilPeerListens exercises the reconnect-with-backoff
// path: node 0 starts dialing before node 1's listener exists and must
// keep retrying until it comes up.
func TestTCPDialRetriesUntilPeerListens(t *testing.T) {
	addrs := reservePorts(t, 2)
	var links [2]Link
	var wg sync.WaitGroup
	var errs [2]error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tcp, err := NewTCP(TCPConfig{
			Self: 0, N: 2, Seed: 9, Listen: addrs[0], Peers: addrs[:],
			DialTimeout: 10 * time.Second, RetryBackoff: 10 * time.Millisecond,
		})
		links[0], errs[0] = tcp, err
	}()
	time.Sleep(300 * time.Millisecond) // node 0 is now failing its dials
	wg.Add(1)
	go func() {
		defer wg.Done()
		tcp, err := NewTCP(TCPConfig{
			Self: 1, N: 2, Seed: 9, Listen: addrs[1], Peers: addrs[:],
			DialTimeout: 10 * time.Second, RetryBackoff: 10 * time.Millisecond,
		})
		links[1], errs[1] = tcp, err
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	defer links[0].Close()
	defer links[1].Close()
	// The late mesh must still carry a full round.
	if err := links[0].Broadcast("hello", []byte("after-backoff")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := links[0].Step()
		done <- err
	}()
	msgs, err := links[1].Step()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Payload) != "after-backoff" {
		t.Fatalf("node 1 delivered %v, want the after-backoff broadcast", msgs)
	}
}

// TestTCPCloseUnblocksStep: closing a link fails a blocked barrier with
// ErrClosed instead of hanging until the step timeout.
func TestTCPCloseUnblocksStep(t *testing.T) {
	links := startTCPCluster(t, 2, 11)
	stepErr := make(chan error, 1)
	go func() {
		_, err := links[0].Step() // blocks: node 1 never steps
		stepErr <- err
	}()
	time.Sleep(100 * time.Millisecond)
	links[0].Close()
	select {
	case err := <-stepErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Step after Close returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Step still blocked 5s after Close")
	}
}

// dialAs opens a session to addr the way any process holding key could:
// the repo's own certificate shape, a stock TLS 1.3 client.
func dialAs(t *testing.T, addr string, key ed25519.PrivateKey) *tls.Conn {
	t.Helper()
	cert, err := sessionCert(key)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tls.Dial("tcp", addr, &tls.Config{
		MinVersion: tls.VersionTLS13, Certificates: []tls.Certificate{cert}, InsecureSkipVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// mustFrame appends one frame to dst.
func mustFrame(t *testing.T, dst []byte, typ byte, body []byte) []byte {
	t.Helper()
	dst, err := appendFrame(dst, typ, body)
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// dataFrame appends m to dst as a data frame.
func dataFrame(t *testing.T, dst []byte, m Message) []byte {
	t.Helper()
	body, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return mustFrame(t, dst, frameData, body)
}

// requireRefused fails unless the node hangs up on conn.
func requireRefused(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection still open 5s after the impostor spoke")
	}
}

// waitFor polls the node's state (under its lock) until cond holds.
func waitFor(t *testing.T, tcp *TCP, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tcp.mu.Lock()
		ok := cond()
		tcp.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// linkState is what an impostor must not be able to move: the session
// the node holds with each peer, what it has buffered, and what its
// barrier has counted.
type linkState struct {
	sessions []net.Conn // by peer id
	buffered int
	doneMax  map[NodeID]int
	stats    Stats
}

// settledState snapshots the node, which must hold a session with every
// peer.
func settledState(t *testing.T, tcp *TCP) linkState {
	t.Helper()
	heldSessions(t, tcp)
	return snapshotState(tcp)
}

func snapshotState(tcp *TCP) linkState {
	st := linkState{sessions: make([]net.Conn, len(tcp.peers)), doneMax: map[NodeID]int{}}
	for id, p := range tcp.peers {
		if p != nil {
			st.sessions[id] = session(tcp, NodeID(id))
		}
	}
	tcp.mu.Lock()
	defer tcp.mu.Unlock()
	st.stats = tcp.stats
	for id, r := range tcp.doneMax {
		st.doneMax[id] = r
	}
	for _, msgs := range tcp.buffered {
		st.buffered += len(msgs)
	}
	return st
}

func requireUntouched(t *testing.T, tcp *TCP, before linkState) {
	t.Helper()
	if after := snapshotState(tcp); !reflect.DeepEqual(after, before) {
		t.Fatalf("impostor moved the node's state:\n before %+v\n after  %+v", before, after)
	}
}

// stepAll ends the round on every link at once and returns each node's
// deliveries.
func stepAll(t *testing.T, links []Link) [][]delivery {
	t.Helper()
	out := make([][]delivery, len(links))
	errs := make([]error, len(links))
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func(i int, l Link) {
			defer wg.Done()
			var msgs []Message
			msgs, errs[i] = l.Step()
			out[i] = deliveries(msgs)
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return out
}

// oneRound has every link broadcast a payload and step once.
func oneRound(t *testing.T, links []Link, payload string) [][]delivery {
	t.Helper()
	for i, l := range links {
		if err := l.Broadcast("bcast", []byte(payload)); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return stepAll(t, links)
}

// TestTCPImpostorsRefused: a node admits only a lower id's roster key,
// so whoever dials node 0 — a raw client, a key outside the roster, its
// own key, or node 1's real key — never gets past the handshake. The
// frames it sends (a message in node 1's name and the end of a far-future
// round) reach neither the message buffer nor the barrier, the node's
// sessions stay as they were, and the mesh runs on.
func TestTCPImpostorsRefused(t *testing.T) {
	const n, seed = 3, 77
	links := startTCPCluster(t, n, seed)
	victim := links[0].(*TCP)
	_, members := DeriveKeys(seed, n)
	_, strangers := DeriveKeys(seed+1, n)
	forged := dataFrame(t, nil, Message{From: 1, To: 0, Kind: "forged", Payload: []byte("x")})
	forged = mustFrame(t, forged, frameDone, doneBody(1<<20))
	before := settledState(t, victim)

	for _, impostor := range []struct {
		name string
		dial func(t *testing.T) net.Conn
	}{
		{"raw client", func(t *testing.T) net.Conn {
			conn, err := net.Dial("tcp", victim.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			return conn
		}},
		{"key outside the roster", func(t *testing.T) net.Conn { return dialAs(t, victim.Addr(), strangers[1]) }},
		{"the node's own key", func(t *testing.T) net.Conn { return dialAs(t, victim.Addr(), members[0]) }},
		{"a higher id's key", func(t *testing.T) net.Conn { return dialAs(t, victim.Addr(), members[1]) }},
	} {
		t.Run(impostor.name, func(t *testing.T) {
			conn := impostor.dial(t)
			conn.Write(forged) // the node may hang up mid-write; either way it must refuse
			requireRefused(t, conn)
			requireUntouched(t, victim, before)
		})
	}

	for i, got := range oneRound(t, links, "after") {
		if len(got) != n-1 {
			t.Fatalf("node %d delivered %v after the impostors, want one broadcast per peer", i, got)
		}
	}
}

// relay is a TCP relay in front of one node: the network attacker's
// position on the connections a dialer makes to it. It records
// everything the dialing side sends, can black-hole that direction while
// the other still flows, and can cut the connections it carries.
type relay struct {
	ln      net.Listener
	swallow atomic.Bool // discard what the dialing side sends instead of forwarding it
	mu      sync.Mutex
	up      bytes.Buffer // everything the dialing side sent
	legs    []net.Conn   // both legs of every relayed connection
}

func (p *relay) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up.Write(b)
}

func (p *relay) captured() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]byte(nil), p.up.Bytes()...)
}

// cut closes every connection the relay carries and forwards the next
// ones faithfully.
func (p *relay) cut() {
	p.swallow.Store(false)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.legs {
		c.Close()
	}
	p.legs = nil
}

// upstream forwards the dialing side's bytes to the relayed node, unless
// the relay is swallowing them.
type upstream struct {
	p   *relay
	dst net.Conn
}

func (u upstream) Write(b []byte) (int, error) {
	if u.p.swallow.Load() {
		return len(b), nil
	}
	return u.dst.Write(b)
}

func startRelay(t *testing.T, listen, target string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		t.Fatal(err)
	}
	p := &relay{ln: ln}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			p.mu.Lock()
			p.legs = append(p.legs, down, up)
			p.mu.Unlock()
			wg.Add(2)
			go func() {
				defer wg.Done()
				io.Copy(upstream{p, up}, io.TeeReader(down, p))
				up.Close()
			}()
			go func() {
				defer wg.Done()
				io.Copy(down, up)
				down.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.cut()
		wg.Wait()
	})
	return p
}

// TestTCPReplayedSessionRefused: an attacker who recorded everything node
// 0 ever sent node 1 over the session it dialled — the opening of the
// session and a full round — replays it on a fresh connection and
// appends the end of a far-future round. Under the signed-hello design
// the replayed opening took over the sender's slot and the DONE marker
// behind it needed no signature; a session's opening is worthless on
// replay, so node 1 hangs up with its state, its real session with node 0
// and the next barrier unaffected.
func TestTCPReplayedSessionRefused(t *testing.T) {
	const seed = 88
	addrs := reservePorts(t, 3)
	nodes, tapAddr := addrs[:2], addrs[2]
	wire := startRelay(t, tapAddr, nodes[1])
	links := startTCPClusterAt(t, seed, nodes, func(cfg *TCPConfig) {
		if cfg.Self == 0 {
			cfg.Peers[1] = tapAddr
		}
	})
	oneRound(t, links, "recorded")
	victim := links[1].(*TCP)
	before := settledState(t, victim)

	conn, err := net.Dial("tcp", nodes[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(mustFrame(t, wire.captured(), frameDone, doneBody(1<<20)))
	requireRefused(t, conn)
	requireUntouched(t, victim, before)

	for i, got := range oneRound(t, links, "after") {
		want := delivery{Round: 1, From: NodeID(1 - i), Kind: "bcast", Payload: "after"}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("node %d delivered %v after the replay, want %v", i, got, want)
		}
	}
}

// TestTCPForgeryDropped: a session covers its own peer's messages to this
// node and nothing else. Node 1 turned Byzantine — a process holding node
// 1's key, here in place of the real node 1 — gets a session with node 2,
// but its frame in node 0's name and its frame addressed elsewhere are
// counted and dropped, exactly like content the simulated network never
// carried on its Inject path; its own message goes through.
func TestTCPForgeryDropped(t *testing.T) {
	const n, seed = 3, 21
	links := startTCPCluster(t, n, seed)
	victim := links[2].(*TCP)
	links[1].Close() // so that no redial of the real node 1 replaces the impostor's session
	_, members := DeriveKeys(seed, n)
	conn := dialAs(t, victim.Addr(), members[1])
	frames := dataFrame(t, nil, Message{From: 0, To: 2, Kind: "as-node-0", Payload: []byte("x")})
	frames = dataFrame(t, frames, Message{From: 1, To: 0, Kind: "misaddressed", Payload: []byte("x")})
	frames = dataFrame(t, frames, Message{From: 1, To: 2, Kind: "own", Payload: []byte("x")})
	frames = mustFrame(t, frames, frameDone, doneBody(0))
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	waitFor(t, victim, "node 1's DONE over the new session", func() bool {
		_, ok := victim.doneMax[1]
		return ok
	})
	if got := victim.Stats().ForgeriesDropped; got != 2 {
		t.Fatalf("ForgeriesDropped = %d, want 2", got)
	}
	victim.mu.Lock()
	defer victim.mu.Unlock()
	if got := victim.buffered[0]; len(got) != 1 || got[0].From != 1 || got[0].Kind != "own" {
		t.Fatalf("buffered %+v, want only node 1's own message", got)
	}
}

// countingConn counts the writes that reach a session.
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestTCPRoundIsOneWrite pins the coalescing contract: whatever a node
// sends in round r stays staged until its Step, reaches each peer as one
// write on the pair's session together with the DONE marker (counted at
// node 0, the dialer), and is delivered by the Step that
// ends round r — a message to itself included — never earlier.
func TestTCPRoundIsOneWrite(t *testing.T) {
	links := startTCPCluster(t, 2, 31)
	a := links[0].(*TCP)
	p := a.peers[1]
	p.mu.Lock()
	counted := &countingConn{Conn: p.conn}
	p.conn = counted
	p.mu.Unlock()

	for _, send := range []func() error{
		func() error { return a.Send(1, "p2p", []byte("to-peer")) },
		func() error { return a.Send(0, "p2p", []byte("to-self")) },
		func() error { return a.Broadcast("bcast", []byte("to-all")) },
	} {
		if err := send(); err != nil {
			t.Fatal(err)
		}
	}
	if got := counted.writes.Load(); got != 0 {
		t.Fatalf("%d writes before Step, want the round staged", got)
	}
	got := stepAll(t, links)
	want := [][]delivery{
		{{Round: 0, From: 0, Kind: "p2p", Payload: "to-self"}},
		{{Round: 0, From: 0, Kind: "bcast", Payload: "to-all"}, {Round: 0, From: 0, Kind: "p2p", Payload: "to-peer"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round 0 delivered %v, want %v", got, want)
	}
	if got := counted.writes.Load(); got != 1 {
		t.Fatalf("%d writes for round 0, want 1", got)
	}
	if got := stepAll(t, links); len(got[0])+len(got[1]) != 0 {
		t.Fatalf("idle round 1 delivered %v", got)
	}
	if got := counted.writes.Load(); got != 2 {
		t.Fatalf("%d writes after two rounds, want 2 (an idle round is its DONE marker alone)", got)
	}
}

// TestTCPSuspectFramesReplayedAfterRehabilitation: in failover mode node 0
// suspects node 1, and a relay black-holes what node 0 sends node 1 on
// their session while node 1's frames still reach node 0. Node 0's round
// 1 — a frame to node 1 and its DONE — vanishes; node 1's DONE(1) arrives
// and rehabilitates it, so node 0 completes round 1 and stages round 2.
// When the relay then cuts the session, node 0 sees it end, redials, and
// its replay onto the fresh session carries round 1 behind it, so node 1
// completes round 1 with the frame it missed and round 2 with the next.
func TestTCPSuspectFramesReplayedAfterRehabilitation(t *testing.T) {
	addrs := reservePorts(t, 3)
	nodes, relayAddr := addrs[:2], addrs[2]
	wire := startRelay(t, relayAddr, nodes[1])
	links := startTCPClusterAt(t, 41, nodes, func(cfg *TCPConfig) {
		cfg.FailoverQuorum = 1
		if cfg.Self == 0 {
			cfg.Peers[1] = relayAddr
		}
	})
	a, b := links[0].(*TCP), links[1].(*TCP)
	oneRound(t, links, "warm-up")

	a.mu.Lock()
	a.suspect[1] = true
	a.mu.Unlock()
	wire.swallow.Store(true)
	if err := a.Send(1, "p2p", []byte("staged-while-suspected")); err != nil {
		t.Fatal(err)
	}
	type result struct {
		msgs []Message
		err  error
	}
	bStepped := make(chan result, 1)
	go func() {
		msgs, err := b.Step() // blocks: node 0's round 1 vanished in the relay
		bStepped <- result{msgs, err}
	}()
	if _, err := a.Step(); err != nil {
		t.Fatal(err)
	}
	if got := a.Suspected(); len(got) != 0 {
		t.Fatalf("node 1 still suspected after its DONE arrived: %v", got)
	}
	if err := a.Send(1, "p2p", []byte("after-rehabilitation")); err != nil {
		t.Fatal(err)
	}
	wire.cut()
	r1 := <-bStepped
	if r1.err != nil {
		t.Fatal(r1.err)
	}
	if len(r1.msgs) != 1 || string(r1.msgs[0].Payload) != "staged-while-suspected" || r1.msgs[0].Round != 1 {
		t.Fatalf("node 1's round 1 delivered %+v, want the frame that vanished while node 1 was suspected", r1.msgs)
	}
	stepped := make(chan error, 1)
	go func() {
		_, err := a.Step()
		stepped <- err
	}()
	r2, err := b.Step()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	if len(r2) != 1 || string(r2[0].Payload) != "after-rehabilitation" || r2[0].Round != 2 {
		t.Fatalf("node 1's round 2 delivered %+v, want the frame sent after rehabilitation", r2)
	}
}

// TestTCPSessionDropRecovers closes one pair's session after both ends
// have flushed round r — at the start of round r+1, before anything of it
// is sent — at the acceptor, at the dialer, or at both ends at once. The
// last is the symmetric drop: a write into a session the peer closed can
// succeed and vanish, so with two one-way sessions per pair both ends
// waited at the barrier until StepTimeout. With one session the dialer
// sees it end, redials at once, and both ends replay onto the fresh one:
// rounds r+1 and r+2 finish in well under StepTimeout, and every node
// delivers what the simulated oracle delivers.
func TestTCPSessionDropRecovers(t *testing.T) {
	const n, seed, r = 4, 2718, 1
	const dialer, acceptor = 1, 3
	want := simulatedExchange(t, n, r+3, seed)
	for _, tc := range []struct {
		name    string
		closers []int
	}{
		{"at the acceptor", []int{acceptor}},
		{"at the dialer", []int{dialer}},
		{"at both ends", []int{dialer, acceptor}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			links := startTCPClusterAt(t, seed, reservePorts(t, n), func(cfg *TCPConfig) {
				cfg.StepTimeout = 20 * time.Second
			})
			ends := map[int]net.Conn{
				dialer:   session(links[dialer].(*TCP), acceptor),
				acceptor: session(links[acceptor].(*TCP), dialer),
			}
			var dropped sync.Map // node -> time it closed its end
			got := driveExchange(t, links, r+3, func(node, round int) {
				if round != r+1 || !slices.Contains(tc.closers, node) {
					return
				}
				ends[node].Close()
				dropped.Store(node, time.Now())
			})
			finished := time.Now()
			requireSameDeliveries(t, got, want)
			dropped.Range(func(node, at any) bool {
				if took := finished.Sub(at.(time.Time)); took > 2*time.Second {
					t.Errorf("rounds %d-%d took %v after node %d closed its end", r+1, r+2, took, node)
				}
				return true
			})
			if session(links[dialer].(*TCP), acceptor) == ends[dialer] ||
				session(links[acceptor].(*TCP), dialer) == ends[acceptor] {
				t.Error("the pair's session was never replaced")
			}
		})
	}
}

// BenchmarkTCPTick is one link barrier tick on the deployed shape: an
// N=4 loopback mesh in which every node broadcasts one coded-result-sized
// payload and steps. ns/op is the wall-clock of a whole tick (all four
// nodes, concurrently); allocs/op sums the four nodes' send and receive
// sides.
func BenchmarkTCPTick(b *testing.B) {
	const n = 4
	links := startTCPCluster(b, n, 51)
	payload := bytes.Repeat([]byte{0xc5}, 256)
	errs := make([]error, n)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func(i int, l Link) {
			defer wg.Done()
			for r := 0; r < b.N; r++ {
				if errs[i] = l.Broadcast("csm-result", payload); errs[i] != nil {
					return
				}
				if _, errs[i] = l.Step(); errs[i] != nil {
					return
				}
			}
		}(i, l)
	}
	wg.Wait()
	b.StopTimer()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("node %d: %v", i, err)
		}
	}
}

// BenchmarkTCPMeshDial brings an N=4 loopback mesh up — every node's
// NewTCP concurrently, as a deployment's processes start together — and
// closes it: the mesh set-up a tcp-* workload's setup_s mostly times.
// ns/op is one mesh, its handshakes dominating.
func BenchmarkTCPMeshDial(b *testing.B) {
	const n = 4
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		addrs := reservePorts(b, n)
		b.StartTimer()
		links := make([]*TCP, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range links {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				links[i], errs[i] = NewTCP(TCPConfig{
					Self: NodeID(i), N: n, Seed: 71, Listen: addrs[i], Peers: addrs,
					BindRetries: 5, DialTimeout: 10 * time.Second,
				})
			}(i)
		}
		wg.Wait()
		for i, l := range links {
			if l != nil {
				l.Close()
			}
			if errs[i] != nil {
				b.Fatalf("node %d: %v", i, errs[i])
			}
		}
	}
}

// TestTCPBindRetriesRideOutReuseRace pins the bootstrap port-reuse fix:
// a probed-free port can be grabbed by another process between the probe
// and the daemon's bind. Without retries NewTCP fails fast; with
// BindRetries it keeps attempting while the squatter holds the port and
// binds as soon as it lets go.
func TestTCPBindRetriesRideOutReuseRace(t *testing.T) {
	addr := reservePorts(t, 1)[0]
	squatter, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()

	if _, err := NewTCP(TCPConfig{
		Self: 0, N: 1, Seed: 1, Listen: addr, Peers: []string{addr},
	}); err == nil {
		t.Fatal("expected an immediate bind failure with BindRetries unset")
	}

	released := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		squatter.Close()
		close(released)
	}()
	tcp, err := NewTCP(TCPConfig{
		Self: 0, N: 1, Seed: 1, Listen: addr, Peers: []string{addr},
		BindRetries: 100, BindBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("bind did not ride out the reuse race: %v", err)
	}
	<-released
	tcp.Close()
}
