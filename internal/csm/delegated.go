package csm

import (
	"fmt"
	"iter"
	"slices"

	"codedsm/internal/delegate"
	"codedsm/internal/field"
	"codedsm/internal/intermix"
	"codedsm/internal/lcc"
	"codedsm/internal/poly"
	"codedsm/internal/transport"
)

// Delegated execution (Section 6.2) is a policy on the one round loop:
// executeAgreed asks once per batch who decodes, and a delegated step
// hands finishStep the same stepOutcome a decentralised one does. An
// attempt under one worker is five phases over four lock-step ticks:
//
//  1. the worker fast-encodes the agreed commands and broadcasts all N
//     coded rows;
//  2. every node that heard it installs its row where encodeCommands would
//     have written it, honest auditors check the encoding (an enc alert on
//     fraud), and the ordinary result exchange runs (broadcastResults);
//  3. nodes collect the results as the core does; a confirmed enc alert
//     aborts; the worker decodes with a proof, refreshes all N coded
//     states and broadcasts both;
//  4. auditors verify the proof against the results they received (a dec
//     alert on fraud; a dishonest auditor fabricates one);
//  5. (no tick) a confirmed dec alert aborts, otherwise every honest node
//     adopts the outputs and its own refreshed coded state.
//
// An aborted attempt, a worker nobody heard from after two ticks, or a
// lying worker whose own decode fails (it sends no proof, one tick later)
// hands the step to the next worker. The attempt owns its protocol state: what
// node i received from the worker is a local indexed by i, and no node
// reads another's copy. The paper's commoners settle an alert in O(1)
// from the INTERMIX transcript; the simulation keeps none, so one node
// re-runs the verifier for the whole broadcast network and the counted
// cost is per alert (enc) or per attempt (dec), not per node.
//
// Wire layouts, little-endian on durability.go's cursor. A section is a
// u32 row count, then per row a u32 length and that many u64 values:
//
//	cmds:  u64 round, u32 attempt, section N x cmdLen elements
//	proof: u64 round, u32 attempt, sections resultLen x (<= dim
//	       coefficients of h), resultLen x (<= N tau entries, each < N),
//	       K x resultLen results, N x stateLen refreshed coded states
//	alert: u64 round, u32 attempt, u8 phase
//
// A parser checks round, attempt, every shape and every value against the
// cluster's own in a dry pass before it allocates, and takes canonical
// elements only, so what it accepts re-encodes to the same bytes.
const (
	dlgCmdsKind  = "csm-dlg-cmds"
	dlgProofKind = "csm-dlg-proof"
	dlgAlertKind = "csm-dlg-alert"

	dlgAlertEnc byte = 1 // the coded commands are not C·X
	dlgAlertDec byte = 2 // the decode proof or the refreshed states are wrong

	// delegationEpsilon is the committee failure-probability target.
	delegationEpsilon = 0.01
)

// dlgProof is the worker's decode proof with the results it proves and
// the refreshed coded states.
type dlgProof[E comparable] struct {
	delegate.DecodeProof[E]
	outputs   [][]E // K result vectors [next state | output]
	codedNext [][]E // N coded states
}

// runExecutionDelegated is the Section 6.2 execution step: a rotating
// worker performs all coding, a random auditor committee (re-elected per
// attempt; a beacon that elects nobody is redrawn) verifies it, and fraud
// aborts the attempt so the next worker retries. Requires the broadcast
// (no-equivocation) network, as the paper does.
func (c *Cluster[E]) runExecutionDelegated(agreed [][]E) (*stepOutcome[E], error) {
	d := delegate.New(c.ring, c.code)
	size, err := intermix.CommitteeSize(delegationEpsilon, float64(c.cfg.MaxFaults)/float64(c.cfg.N))
	if err != nil || size < 1 {
		size = 1
	}
	ticks := 0
	tick := func() { c.net.Step(); ticks++ }
	for attempt := 0; attempt < c.cfg.N; attempt++ {
		w := c.nodes[(c.round+attempt)%c.cfg.N]
		auditors, _, err := intermix.ElectNonEmpty(c.cfg.Seed^(uint64(c.round)<<16)^uint64(attempt), c.cfg.N, size)
		if err != nil {
			return nil, err
		}
		// What node i holds from the worker (the worker: what it sent).
		cmds := make([][][]E, c.cfg.N)
		proofs := make([]*dlgProof[E], c.cfg.N)

		// Phase 1. A lying worker corrupts one coded command.
		if !sendsNothing(w.behavior) {
			if cmds[w.id], err = d.EncodeCommands(agreed); err != nil {
				return nil, err
			}
			if w.behavior != Honest {
				cmds[w.id][0][0] = c.counting.Add(cmds[w.id][0][0], c.counting.One())
			}
			if err := w.ep.Broadcast(dlgCmdsKind, c.encodeDlgCmds(attempt, cmds[w.id])); err != nil {
				return nil, err
			}
		}
		tick()

		// Phase 2.
		for i, n := range c.nodes {
			if coded, ok := c.parseDlgCmds(heardFrom(n, w, dlgCmdsKind), attempt); ok {
				cmds[i] = coded
			}
			if cmds[i] == nil {
				continue
			}
			n.cmdScratch = append(n.cmdScratch[:0], cmds[i][i]...)
			if slices.Contains(auditors, i) && n.behavior == Honest && d.AuditEncoding(agreed, cmds[i]) != nil {
				if err := n.ep.Broadcast(dlgAlertKind, encodeDlgAlert(c.round, attempt, dlgAlertEnc)); err != nil {
					return nil, err
				}
			}
		}
		// The first node that heard the worker will settle enc alerts.
		first := slices.IndexFunc(cmds, func(coded [][]E) bool { return coded != nil })
		if first < 0 { // nobody did
			tick()
			continue
		}
		if err := c.broadcastResults(0); err != nil {
			return nil, err
		}
		tick()

		// Phase 3.
		abort := false
		tab := c.parseResults()
		for i, n := range c.nodes {
			n.collect(tab)
			if i != first {
				continue
			}
			for k := c.dlgAlerts(n.ep.Deliveries(), attempt, dlgAlertEnc); k > 0; k-- {
				abort = d.AuditEncoding(agreed, cmds[i]) != nil || abort
			}
		}
		if abort {
			continue
		}
		dec, dproof, err := d.DecodeWithProof(c.receivedOrZero(w), c.tr.Degree())
		if err != nil && w.behavior != Honest {
			// A lying worker's own word can hold more errors than b (an
			// honest node computed on its corrupted command unaudited): it
			// sends no proof, and the next worker retries.
			tick()
			continue
		}
		if err != nil {
			return nil, err
		}
		next, _, err := c.splitResults(dec.Outputs)
		if err != nil {
			return nil, err
		}
		codedNext, err := d.UpdateStates(next)
		if err != nil {
			return nil, err
		}
		if w.behavior != Honest { // a lying worker corrupts one output too
			dec.Outputs[0][0] = c.counting.Add(dec.Outputs[0][0], c.counting.One())
		}
		proofs[w.id] = &dlgProof[E]{*dproof, dec.Outputs, codedNext}
		if err := w.ep.Broadcast(dlgProofKind, c.encodeDlgProof(attempt, proofs[w.id])); err != nil {
			return nil, err
		}
		tick()

		// Phase 4.
		for i, n := range c.nodes {
			if p, ok := c.parseDlgProof(heardFrom(n, w, dlgProofKind), attempt); ok {
				proofs[i] = p
			}
			if p := proofs[i]; p != nil && slices.Contains(auditors, i) &&
				(n.behavior != Honest || c.verifyDelegationProof(d, n, p) != nil) {
				if err := n.ep.Broadcast(dlgAlertKind, encodeDlgAlert(c.round, attempt, dlgAlertDec)); err != nil {
					return nil, err
				}
			}
		}
		tick()

		// Phase 5. The first honest node settles a dec alert, dismissing a
		// fabricated one; then every honest node adopts what it holds.
		alerted := false
		for _, n := range c.nodes {
			alerted = c.dlgAlerts(n.ep.Deliveries(), attempt, dlgAlertDec) > 0 || alerted
		}
		if alerted {
			v := slices.IndexFunc(c.nodes, func(n *node[E]) bool { return n.behavior == Honest })
			if c.verifyDelegationProof(d, c.nodes[v], proofs[v]) != nil {
				continue
			}
		}
		for i, n := range c.nodes {
			if n.behavior != Honest {
				continue
			}
			n.decoded = &nodeDecode[E]{
				DecodeResult: lcc.DecodeResult[E]{Outputs: proofs[i].outputs, FaultyNodes: c.tauComplement(proofs[i].Tau)},
				stateLen:     c.tr.StateLen(),
			}
			n.codedState = slices.Clone(proofs[i].codedNext[i])
		}
		return c.closeOutcome(c.takeOutcome(), ticks), nil
	}
	return nil, fmt.Errorf("csm: delegated round found no honest worker: %w", ErrRoundStuck)
}

// heardFrom returns what the worker sent n this round under kind, nil if
// nothing.
func heardFrom[E comparable](n, worker *node[E], kind string) (payload []byte) {
	for m := range n.ep.Deliveries() {
		if m.Kind == kind && int(m.From) == worker.id {
			payload = m.Payload
		}
	}
	return payload
}

// dlgAlerts counts the alerts for this attempt and phase among msgs.
func (c *Cluster[E]) dlgAlerts(msgs iter.Seq[transport.Message], attempt int, phase byte) (count int) {
	for m := range msgs {
		if m.Kind == dlgAlertKind && parseDlgAlert(m.Payload, c.round, attempt, phase) {
			count++
		}
	}
	return count
}

// receivedOrZero is the word node n received with absent senders
// zero-filled: the worker's decoder and its proof take no erasures, so a
// missing result costs the budget an error.
func (c *Cluster[E]) receivedOrZero(n *node[E]) [][]E {
	out := make([][]E, n.n)
	for i := range out {
		if out[i] = n.received(i); out[i] == nil {
			out[i] = field.ZeroVec[E](c.counting, c.tr.ResultLen())
		}
	}
	return out
}

// splitResults splits the K result vectors into next states and outputs.
func (c *Cluster[E]) splitResults(results [][]E) (next, outs [][]E, err error) {
	next, outs = make([][]E, len(results)), make([][]E, len(results))
	for k, r := range results {
		if next[k], outs[k], err = c.tr.SplitResult(r); err != nil {
			return nil, nil, err
		}
	}
	return next, outs, nil
}

// verifyDelegationProof is node n's check of a broadcast proof against the
// results n itself received: the decode identities, and that the refreshed
// coded states encode the proved next states.
func (c *Cluster[E]) verifyDelegationProof(d *delegate.Delegation[E], n *node[E], p *dlgProof[E]) error {
	if err := d.VerifyDecodeProof(c.receivedOrZero(n), c.tr.Degree(), &p.DecodeProof, p.outputs); err != nil {
		return err
	}
	next, _, err := c.splitResults(p.outputs)
	if err != nil {
		return err
	}
	return d.AuditEncoding(next, p.codedNext)
}

// tauComplement lists the nodes missing from some component's tau set:
// those whose results the decode found corrupted or missing.
func (c *Cluster[E]) tauComplement(taus [][]int) (out []int) {
	in := make([]int, c.cfg.N)
	for _, tau := range taus {
		for _, i := range tau {
			in[i]++
		}
	}
	for i, cnt := range in {
		if cnt < len(taus) {
			out = append(out, i)
		}
	}
	return out
}

// ---- codecs ----

// dlgHeader opens a message for a round and attempt; dlgOpen starts
// reading one that must carry exactly those.
func dlgHeader(round, attempt int) *bwriter {
	w := &bwriter{}
	w.u64(uint64(round))
	w.u32(uint32(attempt))
	return w
}

func dlgOpen(data []byte, round, attempt int) breader {
	r := breader{b: data}
	if r.u64() != uint64(round) || r.u32() != uint32(attempt) {
		r.fail = true
	}
	return r
}

func dlgPut[T any, V ~[]T](w *bwriter, rows []V, wire func(T) uint64) {
	w.u32(uint32(len(rows)))
	for _, row := range rows {
		w.u32(uint32(len(row)))
		for _, v := range row {
			w.u64(wire(v))
		}
	}
}

// dlgGet reads a section that must hold exactly n rows of lo..hi values
// parse accepts; a dry read checks all of that and allocates nothing.
func dlgGet[T any, V ~[]T](r *breader, n, lo, hi int, dry bool, parse func(uint64) (T, bool)) []V {
	var rows []V
	if r.u32() != uint32(n) {
		r.fail = true
	} else if !dry {
		rows = make([]V, n)
	}
	for i := 0; i < n && !r.fail; i++ {
		count := int(r.u32())
		if count < lo || count > hi {
			r.fail = true
		} else if !dry {
			rows[i] = make(V, count)
		}
		for j := 0; j < count && !r.fail; j++ {
			if v, ok := parse(r.u64()); !ok {
				r.fail = true
			} else if !dry {
				rows[i][j] = v
			}
		}
	}
	return rows
}

func (c *Cluster[E]) elemToWire(e E) uint64 { return c.cfg.BaseField.Uint64(e) }

func (c *Cluster[E]) elemFromWire(v uint64) (E, bool) {
	e := c.cfg.BaseField.FromUint64(v)
	return e, c.cfg.BaseField.Uint64(e) == v
}

func (c *Cluster[E]) nodeFromWire(v uint64) (int, bool) { return int(v), v < uint64(c.cfg.N) }

func (c *Cluster[E]) encodeDlgCmds(attempt int, coded [][]E) []byte {
	w := dlgHeader(c.round, attempt)
	dlgPut(w, coded, c.elemToWire)
	return w.b
}

func (c *Cluster[E]) parseDlgCmds(data []byte, attempt int) (coded [][]E, ok bool) {
	for _, dry := range [2]bool{true, false} {
		r := dlgOpen(data, c.round, attempt)
		coded = dlgGet[E, []E](&r, c.cfg.N, c.tr.CmdLen(), c.tr.CmdLen(), dry, c.elemFromWire)
		if !r.done() {
			return nil, false
		}
	}
	return coded, true
}

func (c *Cluster[E]) encodeDlgProof(attempt int, p *dlgProof[E]) []byte {
	w := dlgHeader(c.round, attempt)
	dlgPut(w, p.Coeffs, c.elemToWire)
	dlgPut(w, p.Tau, func(i int) uint64 { return uint64(i) })
	dlgPut(w, p.outputs, c.elemToWire)
	dlgPut(w, p.codedNext, c.elemToWire)
	return w.b
}

func (c *Cluster[E]) parseDlgProof(data []byte, attempt int) (p *dlgProof[E], ok bool) {
	dim, comps, stateLen := c.code.ResultDim(c.tr.Degree()), c.tr.ResultLen(), c.tr.StateLen()
	for _, dry := range [2]bool{true, false} {
		r := dlgOpen(data, c.round, attempt)
		coeffs := dlgGet[E, poly.Poly[E]](&r, comps, 0, dim, dry, c.elemFromWire)
		taus := dlgGet[int, []int](&r, comps, 0, c.cfg.N, dry, c.nodeFromWire)
		outputs := dlgGet[E, []E](&r, c.cfg.K, comps, comps, dry, c.elemFromWire)
		codedNext := dlgGet[E, []E](&r, c.cfg.N, stateLen, stateLen, dry, c.elemFromWire)
		if !r.done() {
			return nil, false
		}
		if !dry {
			p = &dlgProof[E]{delegate.DecodeProof[E]{Dim: dim, Coeffs: coeffs, Tau: taus}, outputs, codedNext}
		}
	}
	return p, true
}

func encodeDlgAlert(round, attempt int, phase byte) []byte {
	w := dlgHeader(round, attempt)
	w.u8(phase)
	return w.b
}

func parseDlgAlert(data []byte, round, attempt int, phase byte) bool {
	r := dlgOpen(data, round, attempt)
	return r.u8() == phase && r.done()
}
