// Command csmnode runs one node of a Coded State Machine cluster as its
// own OS process, speaking the session-authenticated TCP transport to
// its peers. A cluster is N csmnode processes, each started from a
// static per-node config file; `csmnode bootstrap` writes a matching set
// of config files for an N-node localhost cluster.
//
//	csmnode bootstrap -dir cluster -n 4 -k 2 -seed 42 -serve -data-dir cluster/data
//	csmnode run -config cluster/node1.json &
//	csmnode run -config cluster/node2.json &
//	csmnode run -config cluster/node3.json &
//	csmnode run -config cluster/node0.json -rounds 16   # leads a seeded workload
//
// How each batch is decided is the cluster's consensus mode (bootstrap
// -consensus oracle|dolev-strong|pbft). Under the default oracle mode
// node 0 is the trusted sequencer: with -rounds it leads a seeded random
// workload; with -serve it listens on the config's client address and
// sequences rounds submitted by nodeapi clients (the Submit ingress,
// over a socket); followers need neither flag — they execute whatever
// the sequencer agrees until the stop marker arrives. Under
// dolev-strong or pbft there is no sequencer: every node must be given
// the same -rounds and drives the same seeded workload, each batch
// decided by the real BFT protocol over TCP. PBFT clusters (sized
// N >= 3b+1) survive the crash of up to b processes mid-run — the view
// change routes leadership around them and the survivors' digests still
// match the simulated oracle run.
//
// With data_dir set (bootstrap -data-dir), every node logs each executed
// round's coded share and periodically snapshots it, so a
// killed cluster restarted on the same config files recovers its state,
// reconciles residual crash skew peer-to-peer (csm's Recover handshake),
// and resumes the workload where it stopped. CSMNODE_CRASH=<point>[@n]
// arms the fault-injection hook: the process exits hard the n-th time
// the WAL layer reaches the named crash point (see internal/wal).
//
// Every node prints `digest=<hex>` (a canonical SHA-256 over all decoded
// outputs since round 0, surviving restarts) and `rounds=<n>` on stdout
// when the run ends; honest nodes of one run print identical digests,
// and the digest equals the in-memory simulated cluster's on the same
// workload. SIGINT/SIGTERM shut the node down gracefully: the transport
// closes, the barrier unblocks, and the digest of the rounds executed so
// far is still printed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"codedsm/internal/csm"
	"codedsm/internal/field"
	"codedsm/internal/lcc"
	"codedsm/internal/nodeapi"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
	"codedsm/internal/wal"
)

// nodeConfig is the static per-node cluster configuration. All fields
// except Node, Listen, ClientListen, and DataDir must be identical
// across the cluster's config files — and DataDir must be set on either
// all nodes or none, since recovery is a cluster-wide handshake.
type nodeConfig struct {
	Node   int    `json:"node"`   // this node's id (0 = sequencer)
	N      int    `json:"n"`      // cluster size
	K      int    `json:"k"`      // number of state machines
	Faults int    `json:"faults"` // fault budget b the code is sized for
	Degree int    `json:"degree"` // polynomial-register transition degree
	Seed   uint64 `json:"seed"`   // shared cluster seed (keys + workload)
	Batch  int    `json:"batch"`  // rounds per sequencer batch (workload mode)
	// Consensus selects how batches are decided: "oracle" (default; node
	// 0 is the trusted sequencer), "dolev-strong", or "pbft".
	Consensus string   `json:"consensus,omitempty"`
	Listen    string   `json:"listen"` // this node's transport listen address
	Peers     []string `json:"peers"`  // all N transport addresses, node order
	// ClientListen is the sequencer's nodeapi ingress address (serve
	// mode); empty elsewhere.
	ClientListen  string `json:"client_listen,omitempty"`
	StepTimeoutMS int    `json:"step_timeout_ms,omitempty"`
	// DataDir is this node's durable state directory (applied-round log +
	// coded snapshots). Empty disables durability.
	DataDir string `json:"data_dir,omitempty"`
	// SnapshotEvery is the snapshot cadence in rounds (0 = engine
	// default).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// Fsync selects the WAL sync policy: "always" (default; a decided
	// batch survives any crash) or "never" (the OS decides; faster, may
	// lose the tail on power loss — crash-kill safe either way).
	Fsync string `json:"fsync,omitempty"`
}

func (c nodeConfig) validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("n=%d: a multi-process cluster needs at least 2 nodes", c.N)
	case c.Node < 0 || c.Node >= c.N:
		return fmt.Errorf("node=%d out of range for n=%d", c.Node, c.N)
	case c.K < 1:
		return fmt.Errorf("k=%d: need at least one machine", c.K)
	case c.Degree < 1:
		return fmt.Errorf("degree=%d: need a degree >= 1 transition", c.Degree)
	case c.Batch < 0:
		return fmt.Errorf("batch=%d must be >= 0", c.Batch)
	case len(c.Peers) != c.N:
		return fmt.Errorf("%d peer addresses for n=%d", len(c.Peers), c.N)
	case c.Listen == "":
		return errors.New("listen address is empty")
	case c.Fsync != "" && c.Fsync != "always" && c.Fsync != "never":
		return fmt.Errorf("fsync=%q: want \"always\" or \"never\"", c.Fsync)
	case c.SnapshotEvery < 0:
		return fmt.Errorf("snapshot_every=%d must be >= 0", c.SnapshotEvery)
	}
	kind, err := c.consensusKind()
	if err != nil {
		return err
	}
	// Eager shape check (PBFT: n >= 3b+1) with the engine's typed error,
	// so a doomed cluster fails at bootstrap, not after N sockets are up.
	return csm.ValidateRemoteConsensus(kind, c.N, c.Faults)
}

// consensusKind maps the config's consensus string to the engine kind.
func (c nodeConfig) consensusKind() (csm.ConsensusKind, error) {
	switch c.Consensus {
	case "", "oracle":
		return csm.Oracle, nil
	case "dolev-strong":
		return csm.DolevStrong, nil
	case "pbft":
		return csm.PBFT, nil
	default:
		return 0, fmt.Errorf("%w: unknown consensus %q (want oracle, dolev-strong, or pbft)",
			csm.ErrConsensusConfig, c.Consensus)
	}
}

// syncPolicy maps the config's fsync string to the WAL policy.
func (c nodeConfig) syncPolicy() wal.SyncPolicy {
	if c.Fsync == "never" {
		return wal.SyncNever
	}
	return wal.SyncAlways
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "bootstrap":
		err = bootstrap(os.Args[2:])
	case "run":
		err = run(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "csmnode:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  csmnode bootstrap -dir DIR [-n 4] [-k 2] [-faults 0] [-degree 2] [-seed 42] [-batch 1]
                    [-consensus oracle|dolev-strong|pbft]
                    [-serve] [-data-dir DIR] [-snapshot-every R] [-fsync always|never]
      write per-node config files for an N-node localhost cluster;
      -data-dir enables durable state under DIR/node<i>;
      -consensus pbft needs n >= 3*faults+1 (validated here)
  csmnode run -config FILE [-rounds R] [-serve]
      run one node. Oracle mode: node 0 leads R seeded workload rounds
      (-rounds) or serves the nodeapi Submit ingress (-serve); followers
      need neither flag. BFT modes (dolev-strong, pbft): every node
      needs the same -rounds; -serve is oracle-only. A node with durable
      state resumes from it and reconciles with its peers first.`)
}

// bootstrap writes node{i}.json config files for a localhost cluster,
// probing the kernel for free ports.
func bootstrap(args []string) error {
	fs := flag.NewFlagSet("bootstrap", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory to write node config files into")
	n := fs.Int("n", 4, "cluster size")
	k := fs.Int("k", 2, "number of state machines")
	faults := fs.Int("faults", 0, "fault budget the code is sized for")
	degree := fs.Int("degree", 2, "polynomial-register transition degree")
	seed := fs.Uint64("seed", 42, "shared cluster seed")
	batch := fs.Int("batch", 1, "rounds per sequencer batch")
	consensus := fs.String("consensus", "oracle", `batch consensus: "oracle", "dolev-strong", or "pbft"`)
	serve := fs.Bool("serve", false, "give node 0 a client ingress address")
	dataDir := fs.String("data-dir", "", "enable durability: per-node state under DIR/node<i>")
	snapshotEvery := fs.Int("snapshot-every", 0, "snapshot cadence in rounds (0 = engine default)")
	fsync := fs.String("fsync", "", `WAL sync policy: "always" (default) or "never"`)
	fs.Parse(args)

	if maxK := lcc.SyncMaxMachines(*n, *faults, *degree); *k > maxK {
		return fmt.Errorf("k=%d exceeds capacity %d for n=%d faults=%d degree=%d (need n >= (k-1)*degree + 2*faults + 1)",
			*k, maxK, *n, *faults, *degree)
	}
	// Fail a doomed consensus/fault-budget pairing before any port probe.
	kind, err := nodeConfig{Consensus: *consensus}.consensusKind()
	if err != nil {
		return err
	}
	if err := csm.ValidateRemoteConsensus(kind, *n, *faults); err != nil {
		return err
	}
	if *serve && kind != csm.Oracle {
		return fmt.Errorf("%w: -serve needs the oracle sequencer; %s clusters run fixed workloads", csm.ErrConsensusConfig, *consensus)
	}
	ports := *n
	if *serve {
		ports++
	}
	addrs, err := probePorts(ports)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < *n; i++ {
		cfg := nodeConfig{
			Node: i, N: *n, K: *k, Faults: *faults, Degree: *degree,
			Seed: *seed, Batch: *batch, Consensus: *consensus,
			Listen: addrs[i], Peers: addrs[:*n],
			SnapshotEvery: *snapshotEvery, Fsync: *fsync,
		}
		if *serve && i == 0 {
			cfg.ClientListen = addrs[*n]
		}
		if *dataDir != "" {
			cfg.DataDir = filepath.Join(*dataDir, fmt.Sprintf("node%d", i))
		}
		if err := cfg.validate(); err != nil {
			return err
		}
		data, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, fmt.Sprintf("node%d.json", i))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println(path)
	}
	return nil
}

// probePorts reserves n distinct localhost addresses by briefly binding
// port 0. The listeners close before returning, so the ports are free
// for the nodes to bind (a small reuse race the transport's bind retry
// rides out).
func probePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// installCrashHook arms the fault-injection hook from CSMNODE_CRASH:
// "<point>" or "<point>@<n>" makes the process exit hard — os.Exit, no
// deferred cleanup, indistinguishable from a crash — the n-th time
// (default: first) the WAL layer reaches that crash point. Used by the
// restart harness; normal operation leaves the variable unset.
func installCrashHook() {
	spec := os.Getenv("CSMNODE_CRASH")
	if spec == "" {
		return
	}
	point, after, found := strings.Cut(spec, "@")
	hits := int64(1)
	if found {
		if v, err := strconv.ParseInt(after, 10, 64); err == nil && v > 0 {
			hits = v
		}
	}
	var count atomic.Int64
	wal.SetCrashHook(func(p wal.CrashPoint) {
		if string(p) == point && count.Add(1) == hits {
			fmt.Fprintf(os.Stderr, "csmnode: injected crash at %s\n", p)
			os.Exit(137)
		}
	})
}

// procSequencer adapts the field-element node process to the ingress
// server's plain-uint64 Sequencer surface.
type procSequencer struct {
	proc *csm.NodeProcess[uint64]
	gold field.Goldilocks
}

func (s procSequencer) Machines() int     { return s.proc.Machines() }
func (s procSequencer) CmdLen() int       { return s.proc.Transition().CmdLen() }
func (s procSequencer) Round() int        { return s.proc.Round() }
func (s procSequencer) DigestSum() string { return s.proc.DigestSum() }
func (s procSequencer) Stop() error       { return s.proc.Stop() }

func (s procSequencer) Canonicalize(cmd []uint64) []uint64 {
	out := make([]uint64, len(cmd))
	for i, v := range cmd {
		out[i] = s.gold.Uint64(s.gold.FromUint64(v)) // canonicalize into the field
	}
	return out
}

func (s procSequencer) LeadRound(cmds [][]uint64) ([][]uint64, error) {
	outs, err := s.proc.LeadBatch([][][]uint64{cmds})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// run runs one node until its workload finishes, its sequencer stops the
// cluster, or a termination signal arrives.
func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	configPath := fs.String("config", "", "node config file (required)")
	rounds := fs.Int("rounds", 0, "sequencer only: lead this many seeded workload rounds")
	serve := fs.Bool("serve", false, "sequencer only: serve the nodeapi Submit ingress")
	fs.Parse(args)
	if *configPath == "" {
		return errors.New("run needs -config")
	}
	data, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	var cfg nodeConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %w", *configPath, err)
	}
	if err := cfg.validate(); err != nil {
		return fmt.Errorf("%s: %w", *configPath, err)
	}
	kind, err := cfg.consensusKind()
	if err != nil {
		return err // unreachable after validate, kept for clarity
	}
	if kind != csm.Oracle {
		// BFT clusters are symmetric: no sequencer, no ingress, every node
		// drives the same seeded workload.
		if *serve {
			return fmt.Errorf("%w: -serve needs the oracle sequencer; %s clusters run fixed workloads", csm.ErrConsensusConfig, cfg.Consensus)
		}
		if *rounds <= 0 {
			return fmt.Errorf("%s clusters are symmetric: every node needs the same -rounds", cfg.Consensus)
		}
	} else if cfg.Node == 0 {
		if *serve && *rounds > 0 {
			return errors.New("-serve and -rounds are mutually exclusive")
		}
		if !*serve && *rounds <= 0 {
			return errors.New("the sequencer (node 0) needs -rounds or -serve")
		}
		if *serve && cfg.ClientListen == "" {
			return errors.New("-serve needs a client_listen address in the config (bootstrap -serve)")
		}
	}
	installCrashHook()

	stepTimeout := time.Duration(cfg.StepTimeoutMS) * time.Millisecond
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "node %d: "+format+"\n", append([]any{cfg.Node}, a...)...)
	}
	tcpCfg := transport.TCPConfig{
		Self: transport.NodeID(cfg.Node), N: cfg.N, Seed: cfg.Seed,
		Listen: cfg.Listen, Peers: cfg.Peers,
		StepTimeout: stepTimeout,
		// Ride out the bootstrap probe-to-bind reuse race (and, after a
		// crash, a lingering socket from the previous incarnation).
		BindRetries: 20, BindBackoff: 50 * time.Millisecond,
		Logf: logf,
	}
	if kind == csm.PBFT && cfg.Faults > 0 {
		// PBFT tolerates b dead peers; let the lock-step barrier tolerate
		// the same instead of stalling on a crashed process forever.
		tcpCfg.FailoverQuorum = cfg.N - 1 - cfg.Faults
	}
	link, err := transport.NewTCP(tcpCfg)
	if err != nil {
		return fmt.Errorf("bringing up transport: %w", err)
	}
	defer link.Close()

	// Graceful shutdown: closing the link fails any blocked barrier with
	// ErrClosed, which unwinds the engine; the digest still prints.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	var clientLn net.Listener
	if cfg.Node == 0 && *serve {
		clientLn, err = net.Listen("tcp", cfg.ClientListen)
		if err != nil {
			return fmt.Errorf("binding client ingress: %w", err)
		}
		defer clientLn.Close()
	}
	var interrupted atomic.Bool
	go func() {
		s := <-sigc
		interrupted.Store(true)
		fmt.Fprintf(os.Stderr, "node %d: received %v, shutting down\n", cfg.Node, s)
		if clientLn != nil {
			clientLn.Close()
		}
		link.Close()
	}()

	gold := field.NewGoldilocks()
	var dur *csm.DurabilityConfig
	if cfg.DataDir != "" {
		dur = &csm.DurabilityConfig{
			Dir: cfg.DataDir, SnapshotEvery: cfg.SnapshotEvery, Sync: cfg.syncPolicy(),
		}
	}
	proc, err := csm.NewNodeProcess(csm.RemoteConfig[uint64]{
		BaseField: gold,
		NewTransition: func(f field.Field[uint64]) (*sm.Transition[uint64], error) {
			return sm.NewPolynomialRegister(f, cfg.Degree)
		},
		K:          cfg.K,
		MaxFaults:  cfg.Faults,
		Consensus:  kind,
		Durability: dur,
	}, link)
	if err != nil {
		return err
	}
	defer proc.Close()
	if proc.Durable() {
		if proc.Round() > 0 {
			logf("resuming at round %d from %s", proc.Round(), cfg.DataDir)
		}
		// Reconcile residual crash skew with the peers before any batch.
		if err := proc.Recover(); err != nil {
			return fmt.Errorf("recovery handshake: %w", err)
		}
	}

	var runErr error
	switch {
	case kind != csm.Oracle:
		// Symmetric BFT drive: every node proposes the same seeded
		// workload and executes whatever the protocol decides.
		workload := csm.RandomWorkload[uint64](gold, *rounds, cfg.K, proc.Transition().CmdLen(), cfg.Seed)
		resume := min(proc.Round(), len(workload))
		_, runErr = proc.RunWorkload(workload[resume:], cfg.Batch)
	case cfg.Node != 0:
		_, runErr = proc.Follow()
	case *rounds > 0:
		workload := csm.RandomWorkload[uint64](gold, *rounds, cfg.K, proc.Transition().CmdLen(), cfg.Seed)
		resume := min(proc.Round(), len(workload))
		_, runErr = proc.Lead(workload[resume:], cfg.Batch)
	default:
		runErr = nodeapi.NewServer(procSequencer{proc: proc, gold: gold}, logf).Serve(clientLn)
	}
	if interrupted.Load() && errors.Is(runErr, transport.ErrClosed) {
		runErr = nil // clean signal shutdown
	}
	fmt.Printf("digest=%s\n", proc.DigestSum())
	fmt.Printf("rounds=%d\n", proc.Round())
	return runErr
}
