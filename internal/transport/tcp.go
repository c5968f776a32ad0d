package transport

import (
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
	// re-establishing) a connection to one peer, backoff included.
	// Defaults to 30s.
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
	// later barriers (their frames stay staged, not written, so a crashed
	// peer cannot stall writes either) and rehabilitated the moment one of
	// their end-of-round markers arrives. Zero (the default) keeps the
	// strict all-peers barrier: any dead peer fails Step at StepTimeout.
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

// outConn is the dedicated outbound (send-only) connection to one peer.
// A round's frames are staged here and reach the socket as one write when
// Step ends the round; the lock-step contract delivers nothing before
// the barrier, so nothing is observable earlier. The staged bytes double
// as the retransmit buffer that makes reconnects lossless: the frames of
// the current and previous round are replayed after a redial, and the
// receiving side deduplicates.
type outConn struct {
	id   NodeID
	addr string
	// mu guards conn and the buffers: staging and writes come from the
	// driving goroutine, but Close (from a signal handler, say) must also
	// reach the connection.
	mu    sync.Mutex
	conn  net.Conn
	round int    // round the frames in cur belong to
	cur   []byte // this round's frames: data in send order, then the DONE marker
	prev  []byte // previous round's frames (the peer may not have read them yet)
}

// stage appends one frame to the peer's buffer for the given round.
func (o *outConn) stage(round int, typ byte, body []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if round != o.round {
		o.prev, o.cur = o.cur, o.prev[:0]
		o.round = round
	}
	var err error
	o.cur, err = appendFrame(o.cur, typ, body)
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
// What authenticates a frame is its connection. Every connection is a
// TLS 1.3 session in which both ends present a self-signed certificate
// over their DeriveKeys ed25519 key and prove possession of it in the
// handshake; the dialer accepts only the roster key of the peer it
// dialled, the acceptor only a roster key other than its own. A data
// frame is then accepted only if its From is the session's peer and its
// To is this node, and a DONE marker counts for the session's peer — one
// ed25519 signature and verification per connection, symmetric crypto
// per frame (PBFT's normal-case trade: Castro & Liskov, OSDI '99).
// Messages are delivered with an empty Sig: an envelope no longer proves
// its origin to a third party, which nothing consumes — content that
// must survive re-broadcast goes through SignBlob/VerifyBlob, still
// ed25519 and transport-independent. In exchange DONE markers are
// authenticated, and a captured connection opening cannot be replayed.
//
// Simulation-only knobs are rejected: SetDown fails with
// ErrSimulationOnly, and there is no equivalent of the simulator's delay
// models or equivocation coercion.
type TCP struct {
	cfg  TCPConfig
	pubs []ed25519.PublicKey
	priv ed25519.PrivateKey
	cert tls.Certificate // self-signed over priv; see sessionConfig
	ln   net.Listener

	mu       sync.Mutex
	cond     *sync.Cond
	round    int
	buffered map[int][]Message       // send round -> authenticated messages for Self
	seen     map[int]map[string]bool // send round -> frame bodies (reconnect dedup)
	doneMax  map[NodeID]int          // highest round each peer has ended (absent: none)
	suspect  map[NodeID]bool         // peers presumed crashed (failover mode only)
	inConns  map[NodeID]net.Conn     // inbound (receive-only) connections
	out      map[NodeID]*outConn     // outbound (send-only) connections
	closed   bool
	stats    Stats

	wg sync.WaitGroup
}

// NewTCP opens the node's listener, dials every peer (with backoff until
// DialTimeout), and returns the ready link. Inbound connections from
// peers are accepted for the life of the link; a peer that reconnects
// replaces its previous connection.
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
		buffered: make(map[int][]Message),
		seen:     make(map[int]map[string]bool),
		doneMax:  make(map[NodeID]int),
		suspect:  make(map[NodeID]bool),
		inConns:  make(map[NodeID]net.Conn),
		out:      make(map[NodeID]*outConn),
	}
	t.cond = sync.NewCond(&t.mu)
	t.wg.Add(1)
	go t.acceptLoop()
	// Dial the full outbound mesh concurrently: peers come up in any
	// order, so each dial retries with backoff until DialTimeout.
	var dialWG sync.WaitGroup
	dialErrs := make([]error, cfg.N)
	for id := 0; id < cfg.N; id++ {
		if NodeID(id) == cfg.Self {
			continue
		}
		dialWG.Add(1)
		go func(id NodeID) {
			defer dialWG.Done()
			conn, err := t.dialPeer(id, t.cfg.DialTimeout)
			if err != nil {
				dialErrs[id] = err
				return
			}
			t.mu.Lock()
			t.out[id] = &outConn{id: id, addr: cfg.Peers[id], conn: conn}
			t.mu.Unlock()
		}(NodeID(id))
	}
	dialWG.Wait()
	if err := errors.Join(dialErrs...); err != nil {
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
		// The dialer never reads, so the acceptor must not send it tickets
		// to leave unread; and a round's flush should be one record, not
		// the MSS-sized ones a fresh connection starts with.
		SessionTicketsDisabled:      true,
		DynamicRecordSizingDisabled: true,
	}
}

// dialPeer connects to one peer with exponential backoff, completes the
// handshake against that peer's roster key, and returns the session. The
// timeout bounds the whole attempt, backoff included.
func (t *TCP) dialPeer(id NodeID, timeout time.Duration) (net.Conn, error) {
	cfg := t.sessionConfig(func(peer NodeID) error {
		if peer != id {
			return fmt.Errorf("transport: dialled node %d, reached node %d", id, peer)
		}
		return nil
	})
	deadline := time.Now().Add(timeout) //csmlint:allow detsource(dial deadline on a real socket; I/O pacing, never protocol state)
	backoff := t.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if t.isClosed() {
			return nil, fmt.Errorf("transport: node %d dialing %d: %w", t.cfg.Self, id, ErrClosed)
		}
		//csmlint:allow detsource(dial deadline on a real socket; I/O pacing, never protocol state)
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: node %d could not reach node %d at %s within %v: %w",
				t.cfg.Self, id, t.cfg.Peers[id], timeout, lastErr)
		}
		//csmlint:allow detsource(remaining dial budget on a real socket)
		raw, err := net.DialTimeout("tcp", t.cfg.Peers[id], time.Until(deadline))
		if err == nil {
			conn := tls.Client(raw, cfg)
			conn.SetDeadline(deadline)
			if err = conn.Handshake(); err == nil {
				conn.SetDeadline(time.Time{})
				if attempt > 0 {
					t.logf("node %d reconnected to node %d after %d retries", t.cfg.Self, id, attempt)
				}
				return conn, nil
			}
			conn.Close()
		}
		lastErr = err
		t.logf("node %d dialing node %d at %s: %v (retry in %v)", t.cfg.Self, id, t.cfg.Peers[id], err, backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// acceptLoop registers inbound peer connections for the life of the link.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	cfg := t.sessionConfig(func(peer NodeID) error {
		if peer == t.cfg.Self {
			return fmt.Errorf("transport: node %d was dialled with its own key", peer)
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

// handleInbound completes the handshake — which refuses anyone but
// another roster member — and runs the connection's read loop.
func (t *TCP) handleInbound(conn *tls.Conn) {
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //csmlint:allow detsource(handshake deadline on a real socket)
	if err := conn.Handshake(); err != nil {
		t.logf("node %d refused inbound connection from %s: %v", t.cfg.Self, conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	id, err := t.sessionPeer(conn.ConnectionState())
	if err != nil { // unreachable: the handshake admitted this key
		conn.Close()
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return
	}
	if old := t.inConns[id]; old != nil {
		old.Close() // the peer reconnected; its old reader unblocks and exits
	}
	t.inConns[id] = conn
	t.mu.Unlock()
	t.readLoop(id, conn)
}

// readLoop ingests one peer's frames until the connection breaks.
func (t *TCP) readLoop(id NodeID, conn net.Conn) {
	for {
		typ, body, err := readFrame(conn)
		if err != nil {
			if !t.isClosed() && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				t.logf("node %d lost inbound connection from node %d: %v", t.cfg.Self, id, err)
			}
			return
		}
		switch typ {
		case frameData:
			t.ingestData(id, body)
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
			if max, ok := t.doneMax[id]; !ok || round > max {
				t.doneMax[id] = round
			}
			if t.suspect[id] && round >= t.round {
				delete(t.suspect, id)
				t.logf("node %d rehabilitated node %d (DONE for round %d arrived)", t.cfg.Self, id, round)
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
// not cover: counted and dropped. Retransmitted frames (after a peer's
// reconnect) are deduplicated by their exact bytes.
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
		return // replayed after a reconnect
	}
	set[string(body)] = true
	t.buffered[m.Round] = append(t.buffered[m.Round], m)
	t.stats.MessagesDelivered++
	t.stats.BytesDelivered += uint64(len(m.Payload))
}

func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

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

// markSuspect flags a peer as presumed crashed and wakes any barrier wait
// that may now be satisfiable at quorum.
func (t *TCP) markSuspect(id NodeID, cause string) {
	t.mu.Lock()
	if !t.suspect[id] && !t.closed {
		t.suspect[id] = true
		t.cond.Broadcast()
		t.mu.Unlock()
		t.logf("node %d suspects node %d (%s)", t.cfg.Self, id, cause)
		return
	}
	t.mu.Unlock()
}

func (t *TCP) isSuspect(id NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.suspect[id]
}

// flush ends the peer's round on the wire: the round's staged data frames
// and its DONE marker go out as one write, redialing with backoff if the
// connection broke. Only the driving goroutine calls it.
func (t *TCP) flush(o *outConn) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.conn != nil {
		if _, err := o.conn.Write(o.cur); err == nil {
			return nil
		}
		o.conn.Close()
		o.conn = nil
	}
	// With failover enabled a suspected peer must not stall the writer:
	// skip the blocking redial, keep the frames staged, and let a later
	// flush (after rehabilitation) replay them.
	failover := t.cfg.FailoverQuorum > 0
	if failover && t.isSuspect(o.id) {
		return nil
	}
	// Reconnect — a fresh session, authenticated again — and replay
	// everything the peer may have missed: the previous round's frames (it
	// may not have processed our DONE) and the current round's. The
	// receiver deduplicates byte-identical frames, so over-replay is
	// harmless. In failover mode the redial budget is SuspectAfter, not the
	// full DialTimeout — an unreachable peer becomes suspected instead of
	// an error.
	dialBudget := t.cfg.DialTimeout
	if failover && t.cfg.SuspectAfter < dialBudget {
		dialBudget = t.cfg.SuspectAfter
	}
	conn, err := t.dialPeer(o.id, dialBudget)
	if err != nil {
		if failover {
			t.markSuspect(o.id, "unreachable on write")
			return nil
		}
		return err
	}
	o.conn = conn
	if _, err := conn.Write(slices.Concat(o.prev, o.cur)); err != nil {
		conn.Close()
		o.conn = nil
		if failover {
			t.markSuspect(o.id, "write failed during replay")
			return nil
		}
		return fmt.Errorf("transport: node %d replaying to node %d: %w", t.cfg.Self, o.id, err)
	}
	return nil
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
	t.mu.Lock()
	o := t.out[to]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: node %d send: %w", t.cfg.Self, ErrClosed)
	}
	if o == nil {
		return fmt.Errorf("transport: node %d has no connection to node %d", t.cfg.Self, to)
	}
	return o.stage(round, frameData, body)
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
	t.mu.Lock()
	r := t.round
	outs := make([]*outConn, 0, len(t.out))
	//csmlint:allow detmap(per-peer flush fan-out; write order over distinct sockets is I/O scheduling, deliveries are re-sorted deterministically)
	for _, o := range t.out {
		outs = append(outs, o)
	}
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("transport: node %d step: %w", t.cfg.Self, ErrClosed)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].id < outs[j].id })
	done := doneBody(r)
	for _, o := range outs {
		if err := o.stage(r, frameDone, done); err != nil {
			return nil, err
		}
		if err := t.flush(o); err != nil {
			return nil, err
		}
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
	for !t.closed {
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
	if t.closed {
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

// Close shuts the link down: the listener stops accepting, all
// connections close, and blocked Steps fail with ErrClosed.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.cond.Broadcast()
	conns := make([]net.Conn, 0, len(t.inConns))
	//csmlint:allow detmap(teardown: close order of inbound connections is irrelevant)
	for _, c := range t.inConns {
		conns = append(conns, c)
	}
	outs := make([]*outConn, 0, len(t.out))
	//csmlint:allow detmap(teardown: close order of outbound connections is irrelevant)
	for _, o := range t.out {
		outs = append(outs, o)
	}
	t.mu.Unlock()
	t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, o := range outs {
		o.mu.Lock()
		if o.conn != nil {
			o.conn.Close()
			o.conn = nil
		}
		o.mu.Unlock()
	}
	t.wg.Wait()
	return nil
}
