package transport

import (
	"slices"
	"testing"
)

// tap returns what the network filed this round for delivery next round,
// one message per envelope with To set to its first recipient: what an
// eavesdropper on a synchronous channel saw sent.
func tap(n *Network) []Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	var seen []Message
	for _, env := range n.pending[n.round+1] {
		m := env.msg
		m.To = env.to[0]
		seen = append(seen, m)
	}
	return seen
}

// TestInjectRefusals pins which injected messages the simulated network
// admits, observed through Stats alone. Node 0 of an N=4 synchronous
// network sends "x" to node 1 and then "y" to node 2 under the same kind;
// a no-equivocation channel coerces the second to "x". Each row injects a
// variant of what was tapped off the channel. A message is admitted only
// if node 0 really sent that content (From, Round, Kind, Payload) in a
// round that has not passed, to a recipient that is a node. To is not part
// of what a sender vouches for, so a genuine message re-addressed to
// another node is admitted: that node receives content its sender did
// emit this round.
func TestInjectRefusals(t *testing.T) {
	rows := []struct {
		name           string
		noEquivocation bool
		stale          bool // Step once before injecting
		inject         func(tapped []Message) Message
		admitted       bool
	}{
		{name: "genuine", inject: func(m []Message) Message { return m[0] }, admitted: true},
		{name: "re-addressed to another node", inject: func(m []Message) Message {
			m[0].To = 3
			return m[0]
		}, admitted: true},
		{name: "forged From", inject: func(m []Message) Message {
			m[0].From = 3
			return m[0]
		}},
		{name: "tampered payload", inject: func(m []Message) Message {
			m[0].Payload = []byte("z")
			return m[0]
		}},
		{name: "changed kind", inject: func(m []Message) Message {
			m[0].Kind = "j"
			return m[0]
		}},
		{name: "future round", inject: func(m []Message) Message {
			m[0].Round++
			return m[0]
		}},
		{name: "From past the last node", inject: func(m []Message) Message {
			m[0].From = 4
			return m[0]
		}},
		{name: "negative From", inject: func(m []Message) Message {
			m[0].From = -1
			return m[0]
		}},
		{name: "To past the last node", inject: func(m []Message) Message {
			m[0].To = 4
			return m[0]
		}},
		{name: "negative To", inject: func(m []Message) Message {
			m[0].To = -1
			return m[0]
		}},
		{name: "stale replay", stale: true, inject: func(m []Message) Message { return m[0] }},
		{name: "point-to-point second payload", inject: func(m []Message) Message {
			m[1].To = 1
			return m[1]
		}, admitted: true},
		{name: "coerced copy", noEquivocation: true, inject: func(m []Message) Message { return m[1] }, admitted: true},
		{name: "coerced equivocation's second payload", noEquivocation: true, inject: func(m []Message) Message {
			m[1].Payload = []byte("y")
			return m[1]
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			n := newNet(t, Config{N: 4, Mode: Sync, NoEquivocation: row.noEquivocation, Seed: 31})
			a := endpoint(t, n, 0)
			if err := a.Send(1, "k", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := a.Send(2, "k", []byte("y")); err != nil {
				t.Fatal(err)
			}
			tapped := tap(n)
			if len(tapped) != 2 {
				t.Fatalf("tapped %d envelopes, want 2", len(tapped))
			}
			if row.stale {
				n.Step()
			}
			n.Inject(row.inject(tapped))
			n.Step()
			var admitted uint64
			if row.admitted {
				admitted = 1
			}
			want := Stats{MessagesDelivered: 2 + admitted, BytesDelivered: 2 + admitted,
				ForgeriesDropped: 1 - admitted, Transmissions: 2}
			if st := n.Stats(); st != want {
				t.Fatalf("stats %+v, want %+v", st, want)
			}
		})
	}
}

// TestNetworkRecordPruned: the record of what the network carried holds
// the current round's content and nothing older, before GST and after it.
// Every node broadcasts two different payloads a round on a
// no-equivocation network, so the record holds one entry per node (the
// value the channel coerces to), and Step drops it with the round.
func TestNetworkRecordPruned(t *testing.T) {
	const n, rounds = 7, 200
	net := newNet(t, Config{N: n, Mode: PartialSync, GST: rounds / 2, NoEquivocation: true, Seed: 51})
	eps := make([]*Endpoint, n)
	for i := range eps {
		eps[i] = endpoint(t, net, NodeID(i))
	}
	for r := 0; r < rounds; r++ {
		for i, ep := range eps {
			for _, b := range []byte{0xb0, 0xb1} {
				if err := ep.Broadcast("b", []byte{byte(r), byte(i), b}); err != nil {
					t.Fatal(err)
				}
			}
		}
		net.mu.Lock()
		held, current := len(net.carried), len(net.carried[net.round])
		net.mu.Unlock()
		if held != 1 || current != n {
			t.Fatalf("round %d: record holds %d rounds and %d entries for the current one, want 1 and %d", r, held, current, n)
		}
		net.Step()
		net.mu.Lock()
		held = len(net.carried)
		net.mu.Unlock()
		if held != 0 {
			t.Fatalf("round %d: record holds %d rounds after Step, want 0", r, held)
		}
	}
}

// FuzzInject checks the admission rule on arbitrary messages: on an N=4
// synchronous network in round 1 that carried a fixed set of messages in
// rounds 0 and 1, an injected message is admitted iff its To is a node,
// its Round is not past, and the network carried its (From, Round, Kind,
// Payload) from From. Node 3 equivocates in round 1; on a
// no-equivocation network only its first payload is carried.
func FuzzInject(f *testing.F) {
	type content struct {
		from    NodeID
		round   int
		kind    string
		payload string
	}
	f.Add(0, 2, 1, "b", []byte("x"), false)
	f.Add(1, 2, 1, "u", []byte("y"), true)
	f.Add(3, 1, 1, "e", []byte("q"), true)
	f.Add(3, 1, 1, "e", []byte("q"), false)
	f.Add(2, 0, 1, "b", []byte{}, false)
	f.Add(0, 1, 0, "b", []byte("w"), false)
	f.Add(0, 4, 1, "b", []byte("x"), false)
	f.Fuzz(func(t *testing.T, from, to, round int, kind string, payload []byte, noEquivocation bool) {
		const n = 4
		net := newNet(t, Config{N: n, Mode: Sync, NoEquivocation: noEquivocation, Seed: 81})
		eps := make([]*Endpoint, n)
		for i := range eps {
			eps[i] = endpoint(t, net, NodeID(i))
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(eps[0].Broadcast("b", []byte("w"))) // round 0: stale by the time of the Inject
		net.Step()
		must(eps[0].Broadcast("b", []byte("x")))
		must(eps[1].Send(2, "u", []byte("y")))
		must(eps[2].Broadcast("b", nil))
		must(eps[3].Send(0, "e", []byte("p")))
		must(eps[3].Send(1, "e", []byte("q")))
		carried := []content{{0, 1, "b", "x"}, {1, 1, "u", "y"}, {2, 1, "b", ""}, {3, 1, "e", "p"}}
		if !noEquivocation {
			carried = append(carried, content{3, 1, "e", "q"})
		}
		want := to >= 0 && to < n && round >= net.Round() &&
			slices.Contains(carried, content{NodeID(from), round, kind, string(payload)})
		before := net.Stats().ForgeriesDropped
		net.Inject(Message{From: NodeID(from), To: NodeID(to), Round: round, Kind: kind, Payload: payload})
		if admitted := net.Stats().ForgeriesDropped == before; admitted != want {
			t.Fatalf("Inject(from %d, to %d, round %d, kind %q, payload %q) admitted %v, want %v",
				from, to, round, kind, payload, admitted, want)
		}
	})
}
