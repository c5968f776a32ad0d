// Package procharness drives real csmnode OS processes for the
// deployment and fault-injection harnesses (examples/processes,
// examples/restart, examples/soak): run the in-memory oracle they compare
// against, bootstrap a localhost cluster, start/kill/await its nodes —
// SIGKILL, not a graceful signal, so a "crash" really is one — and scrape
// the digest=/rounds= lines every node prints at exit.
package procharness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"codedsm"
	"codedsm/internal/nodeapi"
)

// Oracle runs the workload on the in-memory simulated cluster a csmnode
// deployment must match — n fault-free nodes, k polynomial registers of
// the given degree — and returns the run digest every csmnode should
// print at exit, with the per-round outputs for streaming checks.
func Oracle(workload [][][]uint64, n, k, degree int, seed uint64) (string, [][][]uint64, error) {
	cluster, err := codedsm.Open(codedsm.NewGoldilocks(),
		func(f codedsm.Field[uint64]) (*codedsm.Transition[uint64], error) {
			return codedsm.NewPolynomialRegister(f, degree)
		},
		codedsm.WithNodes(n),
		codedsm.WithMachines(k),
		codedsm.WithFaults(0),
		codedsm.WithSeed(seed))
	if err != nil {
		return "", nil, err
	}
	results, err := cluster.Run(workload)
	if err != nil {
		return "", nil, err
	}
	digest := nodeapi.NewDigest()
	outputs := make([][][]uint64, len(results))
	for r, res := range results {
		if !res.Correct {
			return "", nil, fmt.Errorf("oracle round %d incorrect", r)
		}
		digest.AddRound(r, res.Outputs)
		outputs[r] = res.Outputs
	}
	return digest.Sum(), outputs, nil
}

// Result is what one csmnode process reported on stdout when it exited.
type Result struct {
	Digest string
	Rounds int
}

type node struct {
	cmd *exec.Cmd
	out bytes.Buffer
	err bytes.Buffer
}

// Cluster manages the N csmnode processes of one bootstrapped config
// directory. Methods are not safe for concurrent use on the same node
// index.
type Cluster struct {
	Csmnode string // path to the csmnode binary
	Dir     string // directory holding node<i>.json
	N       int
	Verbose bool // forward node stderr live instead of capturing it

	mu    sync.Mutex
	nodes []*node
}

// New returns a harness over an (about to be) bootstrapped cluster.
func New(csmnode, dir string, n int) *Cluster {
	return &Cluster{Csmnode: csmnode, Dir: dir, N: n, nodes: make([]*node, n)}
}

// Bootstrap writes the cluster's config files: `csmnode bootstrap -dir
// Dir -n N <extra...>`.
func (c *Cluster) Bootstrap(extra ...string) error {
	args := append([]string{"bootstrap", "-dir", c.Dir, "-n", strconv.Itoa(c.N)}, extra...)
	cmd := exec.Command(c.Csmnode, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("csmnode bootstrap: %w", err)
	}
	return nil
}

// ConfigPath returns node i's config file path.
func (c *Cluster) ConfigPath(i int) string {
	return filepath.Join(c.Dir, fmt.Sprintf("node%d.json", i))
}

// ClientAddr reads the sequencer's nodeapi ingress address from its
// config (bootstrap must have run with -serve).
func (c *Cluster) ClientAddr() (string, error) {
	data, err := os.ReadFile(c.ConfigPath(0))
	if err != nil {
		return "", err
	}
	var cfg struct {
		ClientListen string `json:"client_listen"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return "", fmt.Errorf("parsing %s: %w", c.ConfigPath(0), err)
	}
	if cfg.ClientListen == "" {
		return "", fmt.Errorf("no client_listen in %s (bootstrap without -serve?)", c.ConfigPath(0))
	}
	return cfg.ClientListen, nil
}

// Start launches node i (`csmnode run -config node<i>.json <extra...>`)
// with the given extra environment entries ("KEY=value") appended to the
// parent's. It fails if the node is already running.
func (c *Cluster) Start(i int, extraArgs []string, extraEnv ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nodes[i] != nil {
		return fmt.Errorf("procharness: node %d is already running", i)
	}
	args := append([]string{"run", "-config", c.ConfigPath(i)}, extraArgs...)
	n := &node{cmd: exec.Command(c.Csmnode, args...)}
	n.cmd.Stdout = &n.out
	if c.Verbose {
		n.cmd.Stderr = os.Stderr
	} else {
		n.cmd.Stderr = &n.err
	}
	n.cmd.Env = append(os.Environ(), extraEnv...)
	if err := n.cmd.Start(); err != nil {
		return fmt.Errorf("starting node %d: %w", i, err)
	}
	c.nodes[i] = n
	return nil
}

// take claims node i's handle, leaving the slot free for a restart.
func (c *Cluster) take(i int) *node {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[i]
	c.nodes[i] = nil
	return n
}

// Kill SIGKILLs node i and reaps it; a node that is not running (or
// already exited) is a no-op. The data directory is left exactly as the
// crash left it.
func (c *Cluster) Kill(i int) {
	n := c.take(i)
	if n == nil {
		return
	}
	if n.cmd.Process != nil {
		n.cmd.Process.Kill()
	}
	n.cmd.Wait()
}

// KillAll SIGKILLs every running node, concurrently — the whole-cluster
// crash the recovery handshake is specified against.
func (c *Cluster) KillAll() {
	var wg sync.WaitGroup
	for i := 0; i < c.N; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); c.Kill(i) }(i)
	}
	wg.Wait()
}

// Wait blocks until node i exits on its own and returns the digest and
// rounds it printed. A non-zero exit (including an injected crash) is
// returned as the error, with the node's captured output attached.
func (c *Cluster) Wait(i int) (Result, error) {
	n := c.take(i)
	if n == nil {
		return Result{}, fmt.Errorf("procharness: node %d is not running", i)
	}
	err := n.cmd.Wait()
	res, parseErr := parseResult(n.out.String())
	if err != nil {
		return res, fmt.Errorf("node %d exited: %w\nstdout:\n%sstderr:\n%s", i, err, n.out.String(), n.err.String())
	}
	if parseErr != nil {
		return res, fmt.Errorf("node %d: %w", i, parseErr)
	}
	return res, nil
}

// WaitExit blocks until node i exits, expecting a crash: the exit error
// (if any) is discarded and only the fact that the process is gone
// matters. Used after arming CSMNODE_CRASH.
func (c *Cluster) WaitExit(i int) {
	n := c.take(i)
	if n == nil {
		return
	}
	n.cmd.Wait()
}

// parseResult scrapes the digest=<hex> and rounds=<n> lines.
func parseResult(out string) (Result, error) {
	var res Result
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if d, ok := strings.CutPrefix(sc.Text(), "digest="); ok {
			res.Digest = d
		}
		if r, ok := strings.CutPrefix(sc.Text(), "rounds="); ok {
			v, err := strconv.Atoi(r)
			if err != nil {
				return res, fmt.Errorf("bad rounds line %q", sc.Text())
			}
			res.Rounds = v
		}
	}
	if res.Digest == "" {
		return res, fmt.Errorf("no digest line in output:\n%s", out)
	}
	return res, nil
}

// StartAll launches every node: the sequencer with -rounds, followers
// bare. env, if non-nil, supplies extra environment entries per node
// (the crash-injection hook).
func (c *Cluster) StartAll(rounds int, env func(i int) []string) error {
	for i := c.N - 1; i >= 0; i-- {
		var args []string
		if i == 0 {
			args = []string{"-rounds", strconv.Itoa(rounds)}
		}
		var extra []string
		if env != nil {
			extra = env(i)
		}
		if err := c.Start(i, args, extra...); err != nil {
			return err
		}
	}
	return nil
}

// AwaitAll waits for every node to finish on its own and checks that
// each printed exactly the wanted digest and round count.
func (c *Cluster) AwaitAll(wantDigest string, wantRounds int) error {
	for i := 0; i < c.N; i++ {
		res, err := c.Wait(i)
		if err != nil {
			return err
		}
		if res.Digest != wantDigest {
			return fmt.Errorf("node %d digest %s, want %s", i, res.Digest, wantDigest)
		}
		if res.Rounds != wantRounds {
			return fmt.Errorf("node %d finished at round %d, want %d", i, res.Rounds, wantRounds)
		}
	}
	return nil
}

// WaitWALProgress polls dataDir until its WAL segments hold at least
// minBytes of records (the cluster is provably mid-workload), so a
// SIGKILL lands on a cluster that has state to lose. It gives up after
// timeout — the cluster may legitimately have finished already.
func (c *Cluster) WaitWALProgress(dataDir string, minBytes int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var total int64
		segs, _ := filepath.Glob(filepath.Join(dataDir, "wal-*.log"))
		for _, seg := range segs {
			if fi, err := os.Stat(seg); err == nil {
				total += fi.Size()
			}
		}
		if total >= minBytes {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}
