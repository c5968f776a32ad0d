package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"codedsm"
	"codedsm/internal/csm"
	"codedsm/internal/transport"
	"codedsm/internal/wal"
)

// scratchRoot is where durable workloads keep their WAL directories: a
// relative path, so real files and fsyncs land on the file system of the
// directory the benchmark is run from, and nothing is written outside it.
var scratchRoot = filepath.Join(".bench_build", "csmload")

// scratchDir makes a fresh directory under scratchRoot.
func scratchDir(prefix string) (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchRoot, prefix+"-")
}

// meshEngine is the deployed engine: N NodeProcess goroutines in this
// process, each over its own transport.NewTCP link on loopback (real
// sockets, real signatures, real WAL files and fsyncs).
type meshEngine struct {
	w     workload
	tr    *tracer
	links []*transport.TCP
	nodes []*meshNode
	dir   string // data root of a durable mesh ("" otherwise)
	wg    sync.WaitGroup
	c     engineCounters
}

type meshNode struct {
	id     int
	tcp    *transport.TCP
	traced *tracedLink // nil when untraced
	proc   *csm.NodeProcess[uint64]
	in     chan meshCall
	out    chan meshReply
}

type meshCall struct {
	id, root int
	cmds     [][][]uint64
}

type meshReply struct {
	out  [][][]uint64
	call time.Duration
	err  error
}

// freeAddrs probes n free loopback ports. Another process can grab one
// between the probe and the node's bind; NewTCP's BindRetries rides
// that out.
func freeAddrs(n int) ([]string, error) {
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

// dialMesh brings up n transport.NewTCP links on loopback, fully
// connected. failoverQuorum > 0 lets the barrier advance without a dead
// peer (the PBFT deployments' setting). The timeouts only bound how long
// a wedged mesh can hang the benchmark.
func dialMesh(n, failoverQuorum int) ([]*transport.TCP, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	// Every NewTCP blocks until it has reached all its peers, so the
	// nodes dial concurrently.
	links := make([]*transport.TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range links {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			links[i], errs[i] = transport.NewTCP(transport.TCPConfig{
				Self: transport.NodeID(i), N: n, Seed: clusterSeed,
				Listen: addrs[i], Peers: addrs, BindRetries: 5,
				DialTimeout: 20 * time.Second, StepTimeout: 20 * time.Second,
				FailoverQuorum: failoverQuorum,
			})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeLinks(links)
		return nil, err
	}
	return links, nil
}

func closeLinks(links []*transport.TCP) {
	for _, l := range links {
		if l != nil {
			l.Close()
		}
	}
}

func openMesh(w workload, tr *tracer) (_ engine, err error) {
	e := &meshEngine{w: w, tr: tr, nodes: make([]*meshNode, w.n)}
	defer func() {
		if err != nil {
			closeLinks(e.links)
			e.removeDir()
		}
	}()
	if w.durable {
		if e.dir, err = scratchDir(w.name); err != nil {
			return nil, err
		}
	}
	quorum := 0
	if w.pbft {
		quorum = w.n - 1 - w.faults
	}
	if e.links, err = dialMesh(w.n, quorum); err != nil {
		return nil, err
	}
	for i, l := range e.links {
		e.nodes[i] = &meshNode{id: i, tcp: l, in: make(chan meshCall), out: make(chan meshReply)}
	}
	for _, nd := range e.nodes {
		cfg := csm.RemoteConfig[uint64]{
			BaseField:     codedsm.NewGoldilocks(),
			NewTransition: codedsm.NewBank[uint64],
			K:             w.k,
			MaxFaults:     w.faults,
		}
		if w.pbft {
			cfg.Consensus = csm.PBFT
		}
		if w.durable {
			cfg.Durability = &csm.DurabilityConfig{Dir: filepath.Join(e.dir, fmt.Sprintf("node%d", nd.id)), Sync: wal.SyncAlways}
		}
		var link transport.Link = nd.tcp
		if tr != nil {
			nd.traced = &tracedLink{Link: nd.tcp, tr: tr, node: nd.id}
			link = nd.traced
		}
		if nd.proc, err = csm.NewNodeProcess(cfg, link); err != nil {
			return nil, fmt.Errorf("node %d: %w", nd.id, err)
		}
	}
	for _, nd := range e.nodes {
		e.wg.Add(1)
		go e.serve(nd)
	}
	return e, nil
}

// serve is one node's goroutine: it executes the batches the generator
// hands it until the channel closes. Under PBFT every node runs the
// symmetric RunWorkload on the same rounds; under the oracle sequencer
// node 0 leads and the others follow whatever it broadcasts.
func (e *meshEngine) serve(nd *meshNode) {
	defer e.wg.Done()
	for call := range nd.in {
		var rep meshReply
		parent := 0
		if nd.traced != nil {
			parent = e.tr.reserve()
			nd.traced.batch, nd.traced.parent = call.id, parent
		}
		start := time.Now()
		switch {
		case e.w.pbft:
			rep.out, rep.err = nd.proc.RunWorkload(call.cmds, len(call.cmds))
		case nd.proc.IsSequencer():
			rep.out, rep.err = nd.proc.LeadBatch(call.cmds)
		default:
			var done bool
			rep.out, done, rep.err = nd.proc.FollowBatch()
			if done && rep.err == nil {
				rep.err = errors.New("sequencer stopped mid-run")
			}
		}
		end := time.Now()
		rep.call = end.Sub(start)
		e.tr.finish(parent, "node.batch", "csm", call.id, call.root, nd.id, start, end)
		nd.out <- rep
	}
}

func (e *meshEngine) runBatch(id, root int, cmds [][][]uint64) ([][][]uint64, error) {
	for _, nd := range e.nodes {
		nd.in <- meshCall{id: id, root: root, cmds: cmds}
	}
	reps := make([]meshReply, len(e.nodes))
	for i, nd := range e.nodes {
		reps[i] = <-nd.out
	}
	for i, rep := range reps {
		if rep.err != nil {
			return nil, fmt.Errorf("node %d: %w", i, rep.err)
		}
	}
	e.c.rounds += len(cmds)
	e.c.callTimes = append(e.c.callTimes, reps[0].call)
	// The batch is committed once every node has executed it; a command
	// on which any node disagrees with node 0 has failed.
	out := reps[0].out
	for j := range out {
		for m := range out[j] {
			for _, rep := range reps[1:] {
				if !slices.Equal(rep.out[j][m], out[j][m]) {
					out[j][m] = nil
					break
				}
			}
		}
	}
	return out, nil
}

func (e *meshEngine) finish(o *oracle) error {
	for _, nd := range e.nodes {
		close(nd.in)
	}
	e.wg.Wait()
	var errs []error
	want := o.digest.Sum()
	e.c.digest = e.nodes[0].proc.DigestSum()
	for _, nd := range e.nodes {
		if got := nd.proc.DigestSum(); got != want {
			errs = append(errs, fmt.Errorf("node %d: run digest %s differs from the uncoded replay's %s", nd.id, got, want))
		}
		if nd.traced != nil {
			e.c.link.add(nd.traced.c)
		}
		e.c.forgeries += nd.tcp.Stats().ForgeriesDropped
		if err := nd.proc.Close(); err != nil {
			errs = append(errs, fmt.Errorf("node %d: closing store: %w", nd.id, err))
		}
	}
	if t := e.nodes[0].traced; t != nil {
		e.c.link0 = t.c
		e.c.ticks = int(t.c.steps)
	}
	closeLinks(e.links)
	if e.dir != "" {
		if err := e.scanWAL(); err != nil {
			errs = append(errs, err)
		}
		if err := e.removeDir(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (e *meshEngine) removeDir() error {
	if e.dir == "" {
		return nil
	}
	return os.RemoveAll(e.dir)
}

// walRecApplied is the NodeProcess's per-round "applied" record type
// (internal/csm/durability.go): one per executed round, so counting
// them tells how many rounds the surviving segments cover.
const walRecApplied = 2

// scanWAL reads node 0's surviving WAL segments (snapshot rotation
// prunes all but the last two generations) and counts what the run
// logged per round.
func (e *meshEngine) scanWAL() error {
	segs, err := filepath.Glob(filepath.Join(e.dir, "node0", "wal-*.log"))
	if err != nil {
		return err
	}
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			return err
		}
		end, err := wal.Scan(f, func(r wal.Record) error {
			e.c.walRecords++
			if r.Type == walRecApplied {
				e.c.walRounds++
			}
			return nil
		})
		f.Close()
		if err != nil {
			return fmt.Errorf("scanning %s: %w", seg, err)
		}
		e.c.walBytes += uint64(end)
	}
	return nil
}

func (e *meshEngine) counters() engineCounters { return e.c }

func (c *linkCounts) add(o linkCounts) {
	c.msgs += o.msgs
	c.bytes += o.bytes
	c.steps += o.steps
	c.stepWait += o.stepWait
	c.send += o.send
	c.sign += o.sign
	c.verify += o.verify
}
