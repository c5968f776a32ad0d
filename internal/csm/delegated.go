package csm

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"codedsm/internal/delegate"
	"codedsm/internal/field"
	"codedsm/internal/intermix"
	"codedsm/internal/poly"
)

// Delegated-mode message kinds (Section 6.2 over the lock-step network).
const (
	dlgCmdsKind   = "csm-dlg-cmds"
	dlgResultKind = "csm-result" // nodes broadcast results as in Section 5
	dlgProofKind  = "csm-dlg-proof"
	dlgAlertKind  = "csm-dlg-alert"
)

// dlgCmdsMsg carries the worker's coded commands for every node.
type dlgCmdsMsg struct {
	Round, Attempt int
	Coded          [][]uint64 // N rows, cmdLen columns
}

// dlgProofMsg carries the worker's decode proof and the refreshed coded
// states.
type dlgProofMsg struct {
	Round, Attempt int
	Dim            int
	Coeffs         [][]uint64 // per result component, h's coefficients
	Taus           [][]int
	Outputs        [][]uint64 // K result vectors [next state | output]
	CodedNext      [][]uint64 // N refreshed coded states
}

// dlgAlertMsg is an auditor's fraud alert; Phase is "enc" or "dec".
type dlgAlertMsg struct {
	Round, Attempt int
	Phase          string
}

// encodePayload and decodePayload gob-code the three messages above, the
// last reflective codec on a wire path (batch and result: see csm.go).
func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("csm: encode: %w", err)
	}
	return buf.Bytes(), nil
}

func decodePayload(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// delegationEpsilon is the committee failure-probability target.
const delegationEpsilon = 0.01

// runExecutionDelegated is the Section 6.2 execution phase: a rotating
// worker performs all coding, a random auditor committee verifies it, and
// fraud aborts the attempt so the next worker retries. Requires the
// broadcast (no-equivocation) network, as the paper does.
func (c *Cluster[E]) runExecutionDelegated(agreed [][]E) (*RoundResult[E], int, error) {
	ticks := 0
	for attempt := 0; attempt < c.cfg.N; attempt++ {
		worker := (c.round + attempt) % c.cfg.N
		res, t, aborted, err := c.delegatedAttempt(agreed, worker, attempt)
		ticks += t
		if err != nil {
			return nil, ticks, err
		}
		if !aborted {
			return res, ticks, nil
		}
	}
	return nil, ticks, fmt.Errorf("csm: delegated round found no honest worker: %w", ErrRoundStuck)
}

// committee returns this attempt's honest-auditor election result.
func (c *Cluster[E]) committee(attempt int) []int {
	mu := float64(c.cfg.MaxFaults) / float64(c.cfg.N)
	j, err := intermix.CommitteeSize(delegationEpsilon, mu)
	if err != nil || j < 1 {
		j = 1
	}
	beacon := c.cfg.Seed ^ (uint64(c.round) << 16) ^ uint64(attempt)
	return intermix.ElectCommittee(beacon, c.cfg.N, j)
}

func (c *Cluster[E]) delegatedAttempt(agreed [][]E, worker, attempt int) (*RoundResult[E], int, bool, error) {
	ticks := 0
	d := delegate.New(c.ring, c.code, delegate.HonestDelegate)
	d.Parallelism = c.workers()
	committee := c.committee(attempt)
	isAuditor := make(map[int]bool, len(committee))
	for _, a := range committee {
		isAuditor[a] = true
	}
	workerByz := c.cfg.Byzantine[worker] != Honest

	// Phase 1: the worker fast-encodes the commands and broadcasts them.
	if c.cfg.Byzantine[worker] != Silent {
		coded, err := d.EncodeCommands(agreed)
		if err != nil {
			return nil, ticks, false, err
		}
		if workerByz {
			coded[0][0] = c.counting.Add(coded[0][0], c.counting.One())
		}
		payload, err := encodePayload(dlgCmdsMsg{Round: c.round, Attempt: attempt, Coded: matToWire(c.cfg.BaseField, coded)})
		if err != nil {
			return nil, ticks, false, err
		}
		if err := c.nodes[worker].ep.Broadcast(dlgCmdsKind, payload); err != nil {
			return nil, ticks, false, err
		}
		c.nodes[worker].dlgCoded = coded // the worker keeps its own copy
	}
	c.net.Step()
	ticks++

	// Phase 2: nodes pick up their coded command; honest auditors verify
	// the encoding; every node computes and broadcasts its result.
	gotCmds := false
	var claimed [][]E
	for i, n := range c.nodes {
		n.resetStep()
		var coded [][]E
		if i == worker {
			coded = n.dlgCoded
		}
		for _, m := range n.ep.Receive() {
			if m.Kind != dlgCmdsKind {
				continue
			}
			var dm dlgCmdsMsg
			if err := decodePayload(m.Payload, &dm); err != nil ||
				dm.Round != c.round || dm.Attempt != attempt || len(dm.Coded) != c.cfg.N {
				continue
			}
			coded = matFromWire[[]E](c.cfg.BaseField, dm.Coded)
		}
		if coded == nil {
			continue // silent worker: nothing to execute against
		}
		gotCmds = true
		claimed = coded
		if isAuditor[i] && c.cfg.Byzantine[i] == Honest {
			if err := d.AuditEncoding(agreed, coded); err != nil {
				payload, perr := encodePayload(dlgAlertMsg{Round: c.round, Attempt: attempt, Phase: "enc"})
				if perr != nil {
					return nil, ticks, false, perr
				}
				if err := n.ep.Broadcast(dlgAlertKind, payload); err != nil {
					return nil, ticks, false, err
				}
			}
		}
		result, err := c.tr.ApplyResult(n.codedState, coded[i])
		if err != nil {
			return nil, ticks, false, err
		}
		n.planBroadcast(result)
		if err := n.transmitResult(); err != nil {
			return nil, ticks, false, err
		}
	}
	c.net.Step()
	ticks++
	if !gotCmds {
		return nil, ticks, true, nil // silent worker: abort attempt
	}

	// Phase 3: check encoding alerts (commoner O(1) re-check, modelled by
	// re-running the verifier once); the worker decodes and broadcasts the
	// proof.
	abort := false
	for i, n := range c.nodes {
		msgs := n.ep.Receive()
		n.ingest(msgs, c.round)
		for _, m := range msgs {
			if m.Kind != dlgAlertKind {
				continue
			}
			var am dlgAlertMsg
			if err := decodePayload(m.Payload, &am); err != nil ||
				am.Round != c.round || am.Attempt != attempt || am.Phase != "enc" {
				continue
			}
			if i == 0 { // validate once for the whole (broadcast) network
				if err := d.AuditEncoding(agreed, claimed); err != nil {
					abort = true
				}
			}
		}
	}
	if abort {
		return nil, ticks, true, nil
	}
	var proof dlgProofMsg
	if c.cfg.Byzantine[worker] != Silent {
		w := c.nodes[worker]
		results := make([][]E, c.cfg.N)
		for i := 0; i < c.cfg.N; i++ {
			if v := w.received[i]; v != nil {
				results[i] = v
			} else {
				results[i] = field.ZeroVec[E](c.counting, c.tr.ResultLen())
			}
		}
		dec, dproof, err := d.DecodeWithProof(results, c.tr.Degree())
		if err != nil {
			return nil, ticks, false, err
		}
		nextStates := make([][]E, c.cfg.K)
		for k := 0; k < c.cfg.K; k++ {
			next, _, err := c.tr.SplitResult(dec.Outputs[k])
			if err != nil {
				return nil, ticks, false, err
			}
			nextStates[k] = next
		}
		codedNext, err := d.UpdateStates(nextStates)
		if err != nil {
			return nil, ticks, false, err
		}
		if workerByz {
			dec.Outputs[0][0] = c.counting.Add(dec.Outputs[0][0], c.counting.One())
		}
		proof = dlgProofMsg{
			Round: c.round, Attempt: attempt, Dim: dproof.Dim,
			Coeffs:    matToWire(c.cfg.BaseField, dproof.Coeffs),
			Taus:      dproof.Tau,
			Outputs:   matToWire(c.cfg.BaseField, dec.Outputs),
			CodedNext: matToWire(c.cfg.BaseField, codedNext),
		}
		payload, err := encodePayload(proof)
		if err != nil {
			return nil, ticks, false, err
		}
		if err := w.ep.Broadcast(dlgProofKind, payload); err != nil {
			return nil, ticks, false, err
		}
		w.dlgProof = &proof
	}
	c.net.Step()
	ticks++

	// Phase 4: auditors verify the decode proof; Byzantine auditors raise
	// false alerts against an honest worker.
	gotProof := false
	for i, n := range c.nodes {
		var pm *dlgProofMsg
		if i == worker && n.dlgProof != nil {
			pm = n.dlgProof
		}
		for _, m := range n.ep.Receive() {
			if m.Kind != dlgProofKind {
				continue
			}
			var got dlgProofMsg
			if err := decodePayload(m.Payload, &got); err != nil ||
				got.Round != c.round || got.Attempt != attempt {
				continue
			}
			pm = &got
		}
		if pm == nil {
			continue
		}
		gotProof = true
		n.dlgProof = pm
		if !isAuditor[i] {
			continue
		}
		raise := false
		if c.cfg.Byzantine[i] != Honest {
			raise = true // dishonest auditor: fabricated alert
		} else if c.verifyDelegationProof(d, n, pm) != nil {
			raise = true
		}
		if raise {
			payload, err := encodePayload(dlgAlertMsg{Round: c.round, Attempt: attempt, Phase: "dec"})
			if err != nil {
				return nil, ticks, false, err
			}
			if err := n.ep.Broadcast(dlgAlertKind, payload); err != nil {
				return nil, ticks, false, err
			}
		}
	}
	c.net.Step()
	ticks++
	if !gotProof {
		return nil, ticks, true, nil
	}

	// Phase 5: commoners re-check any alert in O(1) (modelled by one
	// re-verification) and either abort or accept.
	alertSeen := false
	for _, n := range c.nodes {
		for _, m := range n.ep.Receive() {
			if m.Kind != dlgAlertKind {
				continue
			}
			var am dlgAlertMsg
			if err := decodePayload(m.Payload, &am); err != nil ||
				am.Round != c.round || am.Attempt != attempt || am.Phase != "dec" {
				continue
			}
			alertSeen = true
		}
	}
	if alertSeen {
		// One network-wide validity check (the broadcast transcript is
		// shared): a fabricated alert against an honest proof is dismissed.
		validator := c.honestNodeWithProof()
		if validator == nil {
			return nil, ticks, true, nil
		}
		if err := c.verifyDelegationProof(d, validator, validator.dlgProof); err != nil {
			return nil, ticks, true, nil // valid alert: abort attempt
		}
	}
	// Accept: honest nodes adopt the verified outputs and coded states.
	outputs := matFromWire[[]E](c.cfg.BaseField, c.anyProof().Outputs)
	codedNext := matFromWire[[]E](c.cfg.BaseField, c.anyProof().CodedNext)
	faulty := c.tauComplement(c.anyProof().Taus)
	for i, n := range c.nodes {
		if c.cfg.Byzantine[i] != Honest {
			continue
		}
		nextStates := make([][]E, c.cfg.K)
		outs := make([][]E, c.cfg.K)
		for k := 0; k < c.cfg.K; k++ {
			next, out, err := c.tr.SplitResult(outputs[k])
			if err != nil {
				return nil, ticks, false, err
			}
			nextStates[k] = next
			outs[k] = out
		}
		n.decoded = &nodeDecode[E]{outputs: outs, nextStates: nextStates, faulty: faulty}
		n.codedState = append([]E(nil), codedNext[i]...)
	}
	// Advance the oracle and run the client phase.
	oracleOutputs := make([][]E, c.cfg.K)
	for k, m := range c.oracle {
		out, err := m.Step(agreed[k])
		if err != nil {
			return nil, ticks, false, err
		}
		oracleOutputs[k] = out
	}
	res := &RoundResult[E]{Ticks: ticks}
	c.clientPhase(oracleOutputs, c.drawClientReplies(), c.snapshotDecodes(), res)
	return res, ticks, false, nil
}

// verifyDelegationProof is the auditor-side verification of a broadcast
// proof against the auditor's own received results.
func (c *Cluster[E]) verifyDelegationProof(d *delegate.Delegation[E], n *node[E], pm *dlgProofMsg) error {
	results := make([][]E, c.cfg.N)
	for i := 0; i < c.cfg.N; i++ {
		if v := n.received[i]; v != nil {
			results[i] = v
		} else {
			results[i] = field.ZeroVec[E](c.counting, c.tr.ResultLen())
		}
	}
	dproof := &delegate.DecodeProof[E]{
		Dim:    pm.Dim,
		Coeffs: matFromWire[poly.Poly[E]](c.cfg.BaseField, pm.Coeffs),
		Tau:    pm.Taus,
	}
	outputs := matFromWire[[]E](c.cfg.BaseField, pm.Outputs)
	if err := d.VerifyDecodeProof(results, c.tr.Degree(), dproof, outputs); err != nil {
		return err
	}
	// The refreshed coded states must encode the proved next states.
	nextStates := make([][]E, c.cfg.K)
	for k := 0; k < c.cfg.K; k++ {
		next, _, err := c.tr.SplitResult(outputs[k])
		if err != nil {
			return err
		}
		nextStates[k] = next
	}
	return d.AuditEncoding(nextStates, matFromWire[[]E](c.cfg.BaseField, pm.CodedNext))
}

// honestNodeWithProof returns an honest node holding the round's proof.
func (c *Cluster[E]) honestNodeWithProof() *node[E] {
	for i, n := range c.nodes {
		if c.cfg.Byzantine[i] == Honest && n.dlgProof != nil {
			return n
		}
	}
	return nil
}

// anyProof returns the proof any node holds (identical network-wide under
// the broadcast assumption).
func (c *Cluster[E]) anyProof() *dlgProofMsg {
	for _, n := range c.nodes {
		if n.dlgProof != nil {
			return n.dlgProof
		}
	}
	return nil
}

// tauComplement lists nodes excluded from every component's tau set —
// the nodes whose results the decode identified as corrupted or missing.
func (c *Cluster[E]) tauComplement(taus [][]int) []int {
	inAll := make([]int, c.cfg.N)
	for _, tau := range taus {
		for _, i := range tau {
			inAll[i]++
		}
	}
	var out []int
	for i, cnt := range inAll {
		if cnt < len(taus) {
			out = append(out, i)
		}
	}
	return out
}
