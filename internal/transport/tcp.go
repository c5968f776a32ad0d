package transport

import (
	"context"
	"crypto/ed25519"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// TCPConfig configures one node's TCP link into a multi-process cluster.
type TCPConfig struct {
	// Self is this process's node id.
	Self NodeID
	// N is the cluster size; Peers must name all N listen addresses.
	N int
	// Seed derives the cluster's deterministic ed25519 keys (DeriveKeys);
	// every process of a cluster must use the same seed.
	Seed uint64
	// Listen is the address this node accepts peer connections on
	// (host:port; port 0 picks a free port, see Addr).
	Listen string
	// Peers maps node id -> listen address for the whole cluster
	// (Peers[Self] is ignored; it may repeat Listen).
	Peers []string
	// DialTimeout bounds the total time spent establishing (or
	// re-establishing) the session with one peer, backoff included, and
	// how long NewTCP waits for the peers that dial this node. Defaults
	// to 30s.
	DialTimeout time.Duration
	// RetryBackoff is the initial redial backoff; it doubles per attempt
	// up to 2s. Defaults to 2ms: the nodes of a mesh start together, so a
	// lost dial race is over within milliseconds.
	RetryBackoff time.Duration
	// StepTimeout bounds how long Step waits for the round barrier before
	// failing — the guard that keeps a wedged peer from hanging the whole
	// process forever. Defaults to 60s.
	StepTimeout time.Duration
	// BindRetries is the number of extra listen attempts when the
	// configured address is already in use (default 0: fail fast). A
	// bootstrap-probed free port can be grabbed by another process
	// between the probe and the daemon's bind; retrying with backoff
	// rides out that reuse race instead of failing the node.
	BindRetries int
	// BindBackoff is the initial wait between bind attempts; it doubles
	// per attempt up to 2s. Defaults to RetryBackoff.
	BindBackoff time.Duration
	// FailoverQuorum, when positive, lets Step advance without the full
	// barrier: once that many peers (excluding self) have ended the round
	// and SuspectAfter has elapsed, the missing peers are marked suspected
	// and the round completes without them. Suspected peers are skipped by
	// later barriers and rehabilitated the moment one of their
	// end-of-round markers arrives. Zero (the default) keeps the strict
	// all-peers barrier: any dead peer fails Step at StepTimeout.
	//
	// This knob trades the synchronous model's full-barrier determinism
	// for liveness under crash faults; enable it only when the protocol on
	// top tolerates missing senders (PBFT with N >= 3f+1 does, the Oracle
	// engine does not).
	FailoverQuorum int
	// SuspectAfter is how long a quorum-satisfied barrier waits for
	// stragglers before suspecting them. Only meaningful with
	// FailoverQuorum > 0. Defaults to 2s.
	SuspectAfter time.Duration
	// Logf, when non-nil, receives connection-lifecycle diagnostics
	// (dials, retries, replaced connections). Protocol traffic is never
	// logged.
	Logf func(format string, args ...any)
}

// peer is this node's end of the one session it shares with another
// node. Both ends write and read it; the lower id dials it and the
// higher id accepts it. A round's frames are staged here and reach the
// socket as one write when Step ends the round; the lock-step contract
// delivers nothing before the barrier, so nothing is observable earlier.
// The staged bytes double as the retransmit buffer that makes a
// replaced session lossless: whichever end installs a fresh session
// first writes the frames of its current and previous round to it, and
// the receiving side deduplicates.
type peer struct {
	id NodeID
	up chan struct{} // closed when the first session is installed
	// mu guards conn and the buffers: staging and flushes come from the
	// driving goroutine, installs from the session's read loop or the
	// accept loop, and Close (from a signal handler, say) must also reach
	// the connection.
	mu    sync.Mutex
	conn  net.Conn // nil while the session is down
	round int      // round the frames in cur belong to
	cur   []byte   // this round's frames: data in send order, then the DONE marker
	prev  []byte   // previous round's frames (the peer may not have read them yet)
}

// stage appends one frame to the peer's buffer for the given round.
func (p *peer) stage(round int, typ byte, body []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if round != p.round {
		p.prev, p.cur = p.cur, p.prev[:0]
		p.round = round
	}
	var err error
	p.cur, err = appendFrame(p.cur, typ, body)
	return err
}

// TCP is a Link over real sockets. Each process owns one node; rounds
// advance by a distributed barrier: a node ends its round by sending a
// DONE marker to every peer, and Step returns once the markers of all
// peers for the same round have arrived. Per-connection FIFO guarantees
// that a peer's DONE(r) trails all of its round-r messages, so when the
// barrier completes, the round's traffic is complete too — the same
// "sent in round r, delivered in round r+1" contract as the simulated
// synchronous network.
//
// Every pair of nodes shares one connection, the paper's authenticated
// channel between each pair (§2.1): the lower id dials it, the higher id
// accepts it, and both send and receive on it. What authenticates a frame
// is that connection. It is a TLS 1.3 session in which both ends present
// a self-signed certificate over their DeriveKeys ed25519 key and prove
// possession of it in the handshake; the dialer accepts only the roster
// key of the peer it dialled, the acceptor only the roster key of a lower
// id (so neither a higher id nor its own key gets in). A data frame is
// then accepted only if its From is the session's peer and its To is this
// node, and a DONE marker counts for the session's peer — one ed25519
// signature and verification per session end, symmetric crypto per frame
// (PBFT's normal-case trade: Castro & Liskov, OSDI '99). Messages carry
// no signature: an envelope does not prove its origin to a third party,
// which nothing consumes — content that must survive
// re-broadcast goes through SignBlob/VerifyBlob, still ed25519 and
// transport-independent. In exchange DONE markers are authenticated, and
// a captured connection opening cannot be replayed.
//
// A session is replaced, never repaired: a break seen by either end — a
// failed write or a failed read — closes it. The dialer then redials at
// once, so a break both ends flushed past (a write into a dead socket can
// succeed) does not leave them waiting at the barrier; the acceptor never
// dials and keeps its frames staged until the next session arrives.
//
// Simulation-only knobs are rejected: SetDown fails with
// ErrSimulationOnly, and there is no equivalent of the simulator's delay
// models or equivocation coercion.
type TCP struct {
	cfg   TCPConfig
	pubs  []ed25519.PublicKey
	priv  ed25519.PrivateKey
	cert  tls.Certificate // self-signed over priv; see sessionConfig
	ln    net.Listener
	peers []*peer // indexed by node id; nil at Self

	// ctx is cancelled by Close: it ends dials and handshakes in flight,
	// and the link is closed exactly when ctx.Err() != nil.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	round    int
	buffered map[int][]Message       // send round -> authenticated messages for Self
	seen     map[int]map[string]bool // send round -> frame bodies (replay dedup)
	doneMax  map[NodeID]int          // highest round each peer has ended (absent: none)
	suspect  map[NodeID]bool         // peers presumed crashed (failover mode only)
	stats    Stats

	wg sync.WaitGroup
}

// NewTCP opens the node's listener, dials every higher id and waits for
// every lower id to dial in (retrying with backoff, all within
// DialTimeout), and returns the ready link. A lower id's later session
// replaces the one before it for the life of the link.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("transport: need at least one node, got %d", cfg.N)
	}
	if int(cfg.Self) < 0 || int(cfg.Self) >= cfg.N {
		return nil, fmt.Errorf("transport: self %d out of range [0,%d)", cfg.Self, cfg.N)
	}
	if len(cfg.Peers) != cfg.N {
		return nil, fmt.Errorf("transport: %d peer addresses for N=%d", len(cfg.Peers), cfg.N)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.StepTimeout <= 0 {
		cfg.StepTimeout = 60 * time.Second
	}
	if cfg.BindBackoff <= 0 {
		cfg.BindBackoff = cfg.RetryBackoff
	}
	if cfg.FailoverQuorum < 0 || cfg.FailoverQuorum > cfg.N-1 {
		return nil, fmt.Errorf("transport: failover quorum %d out of range [0,%d]", cfg.FailoverQuorum, cfg.N-1)
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2 * time.Second
	}
	pubs, privs := DeriveKeys(cfg.Seed, cfg.N)
	cert, err := sessionCert(privs[cfg.Self])
	if err != nil {
		return nil, fmt.Errorf("transport: node %d session certificate: %w", cfg.Self, err)
	}
	var ln net.Listener
	for attempt, backoff := 0, cfg.BindBackoff; ; attempt++ {
		var err error
		ln, err = net.Listen("tcp", cfg.Listen)
		if err == nil {
			break
		}
		if attempt >= cfg.BindRetries || !errors.Is(err, syscall.EADDRINUSE) {
			return nil, fmt.Errorf("transport: node %d listen on %s: %w", cfg.Self, cfg.Listen, err)
		}
		if cfg.Logf != nil {
			cfg.Logf("node %d: %s in use, retrying bind in %v (attempt %d/%d)",
				cfg.Self, cfg.Listen, backoff, attempt+1, cfg.BindRetries)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
	t := &TCP{
		cfg:      cfg,
		pubs:     pubs,
		priv:     privs[cfg.Self],
		cert:     cert,
		ln:       ln,
		peers:    make([]*peer, cfg.N),
		buffered: make(map[int][]Message),
		seen:     make(map[int]map[string]bool),
		doneMax:  make(map[NodeID]int),
		suspect:  make(map[NodeID]bool),
	}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	t.cond = sync.NewCond(&t.mu)
	for id := range t.peers {
		if NodeID(id) != cfg.Self {
			t.peers[id] = &peer{id: NodeID(id), up: make(chan struct{})}
		}
	}
	wait, stop := context.WithTimeout(t.ctx, cfg.DialTimeout)
	defer stop()
	t.wg.Add(1)
	go t.acceptLoop()
	// Dial the higher ids concurrently: peers come up in any order, so
	// each dial retries with backoff until DialTimeout.
	var dialWG sync.WaitGroup
	errs := make([]error, cfg.N)
	for _, p := range t.peers {
		if p == nil || p.id < cfg.Self {
			continue
		}
		dialWG.Add(1)
		go func(p *peer) {
			defer dialWG.Done()
			conn, err := t.dialPeer(p.id, cfg.DialTimeout)
			if err != nil {
				errs[p.id] = err
				return
			}
			if t.install(p, conn) {
				t.wg.Add(1)
				go t.serve(p, conn)
			}
		}(p)
	}
	for _, p := range t.peers {
		if p == nil || p.id > cfg.Self {
			continue
		}
		select {
		case <-p.up:
		case <-wait.Done():
			errs[p.id] = fmt.Errorf("transport: node %d: no session from node %d within %v", cfg.Self, p.id, cfg.DialTimeout)
		}
	}
	dialWG.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// Addr returns the bound listen address (useful with "host:0" configs).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

func (t *TCP) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// sessionCert wraps a node's roster key in the self-signed certificate
// it presents in every handshake. Peers pin the key and check nothing
// else, so the rest of the certificate is constant.
func sessionCert(priv ed25519.PrivateKey) (tls.Certificate, error) {
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		NotBefore:    time.Unix(0, 0),
		NotAfter:     time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC), // RFC 5280: no expiry
	}
	// ed25519 signing is deterministic and the serial is given, so no
	// randomness is drawn.
	der, err := x509.CreateCertificate(nil, tmpl, tmpl, priv.Public(), priv)
	if err != nil {
		return tls.Certificate{}, err
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: priv}, nil
}

// sessionPeer maps the key a session's peer proved possession of to its
// roster id.
func (t *TCP) sessionPeer(cs tls.ConnectionState) (NodeID, error) {
	if len(cs.PeerCertificates) == 0 {
		return 0, errors.New("transport: peer presented no certificate")
	}
	key, ok := cs.PeerCertificates[0].PublicKey.(ed25519.PublicKey)
	if !ok {
		return 0, errors.New("transport: peer key is not ed25519")
	}
	for id, pub := range t.pubs {
		if pub.Equal(key) {
			return NodeID(id), nil
		}
	}
	return 0, errors.New("transport: peer key is not in the roster")
}

// sessionConfig is the TLS configuration of one end of a connection:
// mutual authentication by roster key, with admit deciding which roster
// members this end talks to. Certificate chains mean nothing here
// (InsecureSkipVerify, RequireAnyClientCert); the handshake still proves
// possession of the presented key, and VerifyConnection fails it unless
// that key is an admitted roster key.
func (t *TCP) sessionConfig(admit func(peer NodeID) error) *tls.Config {
	return &tls.Config{
		MinVersion:         tls.VersionTLS13,
		Certificates:       []tls.Certificate{t.cert},
		ClientAuth:         tls.RequireAnyClientCert,
		InsecureSkipVerify: true,
		VerifyConnection: func(cs tls.ConnectionState) error {
			peer, err := t.sessionPeer(cs)
			if err != nil {
				return err
			}
			return admit(peer)
		},
		// Nothing resumes: every session proves both roster keys afresh,
		// so no tickets are issued. And a round's flush should be one
		// record, not the MSS-sized ones a fresh connection starts with.
		SessionTicketsDisabled:      true,
		DynamicRecordSizingDisabled: true,
	}
}

// dialPeer connects to one peer with exponential backoff, completes the
// handshake against that peer's roster key, and returns the session. The
// timeout bounds the whole attempt, backoff included; Close ends it.
func (t *TCP) dialPeer(id NodeID, timeout time.Duration) (net.Conn, error) {
	cfg := t.sessionConfig(func(peer NodeID) error {
		if peer != id {
			return fmt.Errorf("transport: dialled node %d, reached node %d", id, peer)
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(t.ctx, timeout)
	defer cancel()
	var dialer net.Dialer
	backoff := t.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		raw, err := dialer.DialContext(ctx, "tcp", t.cfg.Peers[id])
		if err == nil {
			conn := tls.Client(raw, cfg)
			if err = conn.HandshakeContext(ctx); err == nil {
				if attempt > 0 {
					t.logf("node %d reconnected to node %d after %d retries", t.cfg.Self, id, attempt)
				}
				return conn, nil
			}
			conn.Close()
		}
		if ctx.Err() != nil {
			if t.isClosed() {
				return nil, fmt.Errorf("transport: node %d dialing %d: %w", t.cfg.Self, id, ErrClosed)
			}
			if lastErr == nil {
				lastErr = err
			}
			return nil, fmt.Errorf("transport: node %d could not reach node %d at %s within %v: %w",
				t.cfg.Self, id, t.cfg.Peers[id], timeout, lastErr)
		}
		lastErr = err
		t.logf("node %d dialing node %d at %s: %v (retry in %v)", t.cfg.Self, id, t.cfg.Peers[id], err, backoff)
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// install makes conn the pair's session. A session it replaces is
// closed, and this node's staged frames — its previous round's and its
// current one's — go out on the fresh session before anything else. It
// reports false, with conn closed, once the link is closed.
func (t *TCP) install(p *peer, conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Close cancels before it takes p.mu: it closes what was installed
	// before, and nothing is installed after.
	if t.isClosed() {
		conn.Close()
		return false
	}
	if p.conn != nil {
		p.conn.Close() // the peer replaced the session; the old read loop unblocks and exits
	}
	p.conn = conn
	if len(p.prev)+len(p.cur) > 0 {
		if _, err := conn.Write(slices.Concat(p.prev, p.cur)); err != nil {
			p.drop(conn)
		}
	}
	select {
	case <-p.up:
	default:
		close(p.up)
	}
	return true
}

// drop closes a session that broke. Its read loop sees the end; the
// peer's frames stay staged until the next session. p.mu must be held.
func (p *peer) drop(conn net.Conn) {
	conn.Close()
	if p.conn == conn {
		p.conn = nil
	}
}

// serve is the dialer's end of the pair's sessions: it reads the session
// until it ends and, while the link is open, redials at once and reads
// the next one.
func (t *TCP) serve(p *peer, conn net.Conn) {
	defer t.wg.Done()
	for {
		t.readLoop(p, conn)
		if t.isClosed() {
			return
		}
		var err error
		if conn, err = t.dialPeer(p.id, t.cfg.DialTimeout); err != nil {
			if !errors.Is(err, ErrClosed) {
				t.logf("node %d gave up redialling node %d: %v", t.cfg.Self, p.id, err)
			}
			return
		}
		if !t.install(p, conn) {
			return
		}
	}
}

// acceptLoop installs the sessions the lower ids dial for the life of
// the link.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	cfg := t.sessionConfig(func(peer NodeID) error {
		if peer >= t.cfg.Self {
			return fmt.Errorf("transport: node %d accepts sessions from lower ids only, not node %d", t.cfg.Self, peer)
		}
		return nil
	})
	for {
		raw, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.handleInbound(tls.Server(raw, cfg))
		}()
	}
}

// handleInbound completes the handshake — which refuses anyone but a
// lower roster id — and installs the session, reading it from before the
// install until it ends: the dialer replays onto it too, and two ends
// that both write before they read could fill each other's buffers.
func (t *TCP) handleInbound(conn *tls.Conn) {
	ctx, cancel := context.WithTimeout(t.ctx, 10*time.Second)
	err := conn.HandshakeContext(ctx)
	cancel()
	if err != nil {
		t.logf("node %d refused inbound connection from %s: %v", t.cfg.Self, conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	id, err := t.sessionPeer(conn.ConnectionState())
	if err != nil { // unreachable: the handshake admitted this key
		conn.Close()
		return
	}
	p := t.peers[id]
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.readLoop(p, conn)
	}()
	t.install(p, conn)
}

// readLoop ingests one session's frames until it ends, and then closes
// it.
func (t *TCP) readLoop(p *peer, conn net.Conn) {
	defer func() {
		p.mu.Lock()
		p.drop(conn)
		p.mu.Unlock()
	}()
	for {
		typ, body, err := readFrame(conn)
		if err != nil {
			if !t.isClosed() && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				t.logf("node %d lost its session with node %d: %v", t.cfg.Self, p.id, err)
			}
			return
		}
		switch typ {
		case frameData:
			t.ingestData(p.id, body)
		case frameDone:
			round, err := parseDone(body)
			if err != nil {
				continue
			}
			t.mu.Lock()
			// DONE(r) marks the end of every round up to r, so one integer
			// per peer is enough — and it stays correct when failover lets
			// the cluster advance several rounds past a straggler. The
			// session vouches that the marker is this peer's own; it only
			// feeds the barrier count (never message content), so a peer
			// lying about a future round can at worst stop us waiting for
			// itself.
			if max, ok := t.doneMax[p.id]; !ok || round > max {
				t.doneMax[p.id] = round
			}
			if t.suspect[p.id] && round >= t.round {
				delete(t.suspect, p.id)
				t.logf("node %d rehabilitated node %d (DONE for round %d arrived)", t.cfg.Self, p.id, round)
			}
			t.cond.Broadcast()
			t.mu.Unlock()
		default:
			// Unknown frame type: ignore (forward compatibility).
		}
	}
}

// ingestData buffers one data frame received over from's session (or
// sent by this node to itself). A frame claiming another sender, or
// addressed to another node, is a member forging what its session does
// not cover: counted and dropped. Frames replayed onto a fresh session
// are deduplicated by their exact bytes.
func (t *TCP) ingestData(from NodeID, body []byte) {
	m, err := UnmarshalMessage(body)
	if err != nil {
		return
	}
	if m.From != from || m.To != t.cfg.Self {
		t.mu.Lock()
		t.stats.ForgeriesDropped++
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if m.Round < t.round || m.Round > t.round+1 {
		// Late (its delivery round has passed) or impossibly far ahead (a
		// peer cannot be more than one barrier ahead): drop, so garbage
		// rounds cannot grow the buffers unboundedly.
		return
	}
	set := t.seen[m.Round]
	if set == nil {
		set = make(map[string]bool)
		t.seen[m.Round] = set
	}
	if set[string(body)] {
		return // replayed onto a fresh session
	}
	set[string(body)] = true
	t.buffered[m.Round] = append(t.buffered[m.Round], m)
	t.stats.MessagesDelivered++
	t.stats.BytesDelivered += uint64(len(m.Payload))
}

func (t *TCP) isClosed() bool { return t.ctx.Err() != nil }

// Self returns this process's node id.
func (t *TCP) Self() NodeID { return t.cfg.Self }

// N returns the cluster size.
func (t *TCP) N() int { return t.cfg.N }

// Round returns the current lock-step round.
func (t *TCP) Round() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.round
}

// Stats returns a snapshot of delivery counters.
func (t *TCP) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// SetDown is a simulation-only knob: over real sockets a crash happens to
// a process, it is not declared by a peer.
func (t *TCP) SetDown(id NodeID, down bool) error {
	return fmt.Errorf("transport: SetDown(%d, %v) on the TCP transport: %w", id, down, ErrSimulationOnly)
}

// SignBlob signs protocol content under a domain-separation context with
// this node's key (same byte layout as the simulated Endpoint's SignBlob,
// so chains signed on one transport verify on the other).
func (t *TCP) SignBlob(context string, data []byte) []byte {
	return ed25519.Sign(t.priv, blobBytes(context, data))
}

// VerifyBlob verifies a blob signature produced by node id's SignBlob.
func (t *TCP) VerifyBlob(id NodeID, context string, data, sig []byte) bool {
	if int(id) < 0 || int(id) >= t.cfg.N {
		return false
	}
	return ed25519.Verify(t.pubs[id], blobBytes(context, data), sig)
}

// Suspected reports the peers currently presumed crashed (failover mode
// only; always empty with FailoverQuorum == 0).
func (t *TCP) Suspected() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]NodeID, 0, len(t.suspect))
	for id := 0; id < t.cfg.N; id++ {
		if t.suspect[NodeID(id)] {
			ids = append(ids, NodeID(id))
		}
	}
	return ids
}

// flush ends the round on the pair's session: the round's staged data
// frames and its DONE marker go out as one write. A failed write drops
// the session, and while it is down the frames stay staged for the next
// one to replay; the dialer's read loop redials it (see serve). Only the
// driving goroutine calls flush, and it never dials, so no peer —
// crashed, unreachable or suspected — stalls the writer.
func (t *TCP) flush(p *peer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		return
	}
	if _, err := p.conn.Write(p.cur); err != nil {
		p.drop(p.conn)
	}
}

// send stages one message for its recipient; Step puts it on the wire. A
// self-addressed message is buffered locally (the simulator's
// Endpoint.Send allows it too).
func (t *TCP) send(to NodeID, round int, kind string, payload []byte) error {
	body, err := AppendMessage(nil, Message{From: t.cfg.Self, To: to, Round: round, Kind: kind, Payload: payload})
	if err != nil {
		return err
	}
	if to == t.cfg.Self {
		t.ingestData(to, body)
		return nil
	}
	if t.isClosed() {
		return fmt.Errorf("transport: node %d send: %w", t.cfg.Self, ErrClosed)
	}
	return t.peers[to].stage(round, frameData, body)
}

// Send transmits a message to a single node. It is unsigned: the
// recipient takes the sender from the session it arrives on.
func (t *TCP) Send(to NodeID, kind string, payload []byte) error {
	if int(to) < 0 || int(to) >= t.cfg.N {
		return fmt.Errorf("transport: recipient %d out of range", to)
	}
	return t.send(to, t.Round(), kind, payload)
}

// Broadcast transmits a message to every other node.
func (t *TCP) Broadcast(kind string, payload []byte) error {
	round := t.Round()
	for to := 0; to < t.cfg.N; to++ {
		if NodeID(to) == t.cfg.Self {
			continue
		}
		if err := t.send(NodeID(to), round, kind, payload); err != nil {
			return err
		}
	}
	return nil
}

// Step ends this node's round: it flushes the round's staged messages and
// a DONE marker to every peer in one write each, waits (up to
// StepTimeout) for every peer's DONE of the same round, advances, and
// returns the round's deliveries sorted in the simulated network's
// deterministic order. With FailoverQuorum set, the barrier instead
// completes once that many peers have ended the round and the
// SuspectAfter grace for stragglers has elapsed; stragglers are marked
// suspected and skipped by later barriers until they reappear.
func (t *TCP) Step() ([]Message, error) {
	if t.isClosed() {
		return nil, fmt.Errorf("transport: node %d step: %w", t.cfg.Self, ErrClosed)
	}
	r := t.Round()
	done := doneBody(r)
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		if err := p.stage(r, frameDone, done); err != nil {
			return nil, err
		}
		t.flush(p)
	}
	// Barrier: peers must end round r before we advance. Timers wake the
	// wait so a dead peer fails the Step (or, in failover mode, gets
	// suspected) instead of hanging it.
	failover := t.cfg.FailoverQuorum > 0
	deadline := time.Now().Add(t.cfg.StepTimeout) //csmlint:allow detsource(liveness timeout for the step barrier; expiry fails the Step, it never reorders deliveries)
	wake := func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	}
	timer := time.AfterFunc(t.cfg.StepTimeout, wake)
	defer timer.Stop()
	var graceOver time.Time
	if failover {
		graceOver = time.Now().Add(t.cfg.SuspectAfter) //csmlint:allow detsource(liveness grace before suspecting stragglers; expiry only shrinks the barrier, deliveries stay sorted)
		grace := time.AfterFunc(t.cfg.SuspectAfter, wake)
		defer grace.Stop()
	}
	var newSuspects []NodeID
	t.mu.Lock()
	for !t.isClosed() {
		arrived := 0
		lateHealthy := 0 // missing peers not (yet) suspected
		missing := make([]NodeID, 0, t.cfg.N)
		for id := 0; id < t.cfg.N; id++ {
			if NodeID(id) == t.cfg.Self {
				continue
			}
			if max, ok := t.doneMax[NodeID(id)]; ok && max >= r {
				arrived++
				continue
			}
			missing = append(missing, NodeID(id))
			if !t.suspect[NodeID(id)] {
				lateHealthy++
			}
		}
		if arrived == t.cfg.N-1 {
			break
		}
		//csmlint:allow detsource(liveness grace before suspecting stragglers; expiry only shrinks the barrier, deliveries stay sorted)
		graceExpired := failover && !time.Now().Before(graceOver)
		if failover && arrived >= t.cfg.FailoverQuorum &&
			(lateHealthy == 0 || graceExpired) {
			for _, id := range missing {
				if !t.suspect[id] {
					t.suspect[id] = true
					newSuspects = append(newSuspects, id)
				}
			}
			break
		}
		//csmlint:allow detsource(liveness timeout for the step barrier; expiry fails the Step, it never reorders deliveries)
		if !time.Now().Before(deadline) {
			t.mu.Unlock()
			return nil, fmt.Errorf("transport: node %d round %d barrier timed out after %v waiting for peers %v",
				t.cfg.Self, r, t.cfg.StepTimeout, missing)
		}
		t.cond.Wait()
	}
	if t.isClosed() {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: node %d step: %w", t.cfg.Self, ErrClosed)
	}
	t.round = r + 1
	due := t.buffered[r]
	delete(t.buffered, r)
	delete(t.seen, r)
	t.mu.Unlock()
	for _, id := range newSuspects {
		t.logf("node %d suspects node %d (no DONE for round %d within %v)", t.cfg.Self, id, r, t.cfg.SuspectAfter)
	}
	// The simulator delivers sorted by sender, recipient, kind; recipient
	// is constant here.
	sort.SliceStable(due, func(i, j int) bool {
		if due[i].From != due[j].From {
			return due[i].From < due[j].From
		}
		return due[i].Kind < due[j].Kind
	})
	return due, nil
}

// Close shuts the link down: dials in flight end, the listener stops
// accepting, all sessions close, and blocked Steps fail with ErrClosed.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.isClosed() {
		t.mu.Unlock()
		return nil
	}
	t.cancel()
	t.cond.Broadcast()
	t.mu.Unlock()
	t.ln.Close()
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			p.drop(p.conn)
		}
		p.mu.Unlock()
	}
	t.wg.Wait()
	return nil
}
