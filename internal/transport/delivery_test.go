package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
	"testing"
)

// goldenN is the cluster size of the pinned delivery schedule.
const goldenN = 7

// deliveryReads are the three ways of reading an inbox the goldens must
// agree on: Receive, ranging over Deliveries, and expanding the network's
// per-envelope walk into the node's inbox.
var deliveryReads = []struct {
	name string
	read func(*Endpoint) []Message
}{
	{"Receive", (*Endpoint).Receive},
	{"Deliveries", func(ep *Endpoint) []Message { return slices.Collect(ep.Deliveries()) }},
	{"Envelopes", envelopeInbox},
}

// envelopeInbox expands Network.Envelopes into ep's inbox: every envelope
// whose recipients (every node but the sender, when it lists none)
// include ep, with To set, in the walk's order.
func envelopeInbox(ep *Endpoint) []Message {
	var inbox []Message
	for m, to := range ep.net.Envelopes() {
		if m.To != 0 {
			panic("Envelopes yielded a message with To set")
		}
		if to == nil {
			for r := range NodeID(ep.net.N()) {
				if r != m.From {
					to = append(to, r)
				}
			}
		}
		if slices.Contains(to, ep.ID()) {
			m.To = ep.ID()
			inbox = append(inbox, m)
		}
	}
	return inbox
}

// goldenSchedule drives one network through a fixed schedule, reading
// every node's deliveries after each Step with read, and returns each
// node's delivery digest and the final Stats. Every round, nodes 0-3,
// 5 and 6 broadcast, node 4 equivocates (a different payload to every
// peer) and node 1 sends one unicast. On top of that: node 5 is down at enqueue time in rounds 1
// and 2; node 6 goes down after round 4's sends, with messages to it in
// flight, and comes back before round 6's Step; in round 2 node 6 sends a
// payload to node 0 and then broadcasts a different one under the same
// (sender, round, kind), which a no-equivocation network coerces; in round
// 3 a forgery claiming node 0 is injected.
func goldenSchedule(t *testing.T, cfg Config, read func(*Endpoint) []Message, fold func(hash.Hash, int, []Message)) ([goldenN]string, Stats) {
	t.Helper()
	const sendRounds, drainRounds = 10, 6
	net := newNet(t, cfg)
	var eps [goldenN]*Endpoint
	var hs [goldenN]hash.Hash
	for i := range eps {
		eps[i] = endpoint(t, net, NodeID(i))
		hs[i] = sha256.New()
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < sendRounds+drainRounds; r++ {
		switch r {
		case 1:
			must(net.SetDown(5, true))
		case 3:
			must(net.SetDown(5, false))
		case 6:
			must(net.SetDown(6, false))
		}
		if r < sendRounds {
			for _, id := range []int{0, 1, 2, 3, 5, 6} {
				must(eps[id].Broadcast("b", []byte{byte(r), byte(id), 0xb0}))
			}
			for to := 0; to < goldenN; to++ {
				if to != 4 {
					must(eps[4].Send(NodeID(to), "e", []byte{byte(r), 4, byte(to)}))
				}
			}
			if to := NodeID((r + 2) % goldenN); to != 1 {
				must(eps[1].Send(to, "u", []byte{byte(r), 1, byte(to), 0x55}))
			}
			if r == 2 {
				must(eps[6].Send(0, "c", []byte("first")))
				must(eps[6].Broadcast("c", []byte("second")))
			}
			if r == 3 {
				net.Inject(Message{From: 0, To: 3, Round: r, Kind: "b", Payload: []byte("forged")})
			}
		}
		if r == 4 {
			must(net.SetDown(6, true))
		}
		net.Step()
		for i, ep := range eps {
			fold(hs[i], net.Round(), read(ep))
		}
	}
	var out [goldenN]string
	for i, h := range hs {
		out[i] = hex.EncodeToString(h.Sum(nil))
	}
	return out, net.Stats()
}

// contentGoldens pins goldenSchedule's deliveries by their content alone —
// (From, To, Round, Kind, Payload) per message, as hashContent folds them
// — and the final Stats, under three network configurations. The values
// were recorded from the network that signed every envelope; any change
// to the delivery path must reproduce them exactly.
var contentGoldens = []struct {
	name  string
	cfg   Config
	nodes [goldenN]string
	stats Stats
}{
	{
		name: "psync-random-noequivocation",
		cfg:  Config{N: goldenN, Mode: PartialSync, GST: 5, MaxPreGSTDelay: 3, NoEquivocation: true, Seed: 41},
		nodes: [goldenN]string{
			"2d61320b07ad1c94fdc5d18cd30cee46d92c688b78c79dff97d97f762a7fb5e2",
			"d1237593ee0f50470494c54fe8faa6bd2d72635f3bc79f2ab15eaed10978b12c",
			"7e34bda16f8f43e3a3b56aa500d6d83c9457346de6d2fe00c05ff414daa6f714",
			"0c543146755c35304e3db5163bc10621bf59842649dc2e3929d2164d8c23bc42",
			"f9e8ff9aca0fdbac1b469176f6b1ee0f086d3dd17723298bb088e6f00a5e2ca6",
			"b26c5d88352cb61a419f6c5860da64922cdb7f21e9414910d3d0a25b3a0952b3",
			"2e1633ad9145f9be80479daf3a741a0036807871de23e0bec79baabcd7c58206",
		},
		stats: Stats{MessagesDelivered: 384, BytesDelivered: 1173, ForgeriesDropped: 1, RandomDelays: 197, DroppedDown: 52, Transmissions: 131},
	},
	{
		name: "psync-delayfn",
		cfg: Config{N: goldenN, Mode: PartialSync, GST: 5, MaxPreGSTDelay: 3, Seed: 42,
			DelayFn: func(from, to NodeID, round int) int { return 1 + (3*int(from)+5*int(to)+round)%4 }},
		nodes: [goldenN]string{
			"52fa372da1e43dd452694799db47d0d94b5ac43e1353877fa933c8d7e78dbd21",
			"aadfba04b03448e0306d731dde4e1d7b19300292e4b93ccb18b6d06d7be9d1ba",
			"6f7b3ea00c2ed8c5f1baa266d3e33fc5be5105738a26a22e584f5245737514d9",
			"2deef2abc22e620e66d4aa136e6d5394bb26f531c3f9808f9087a52166216462",
			"08a724bda9e01c7578e8efc4cb5cdcbb22eea856ede13ce8b16c011233cf0eb9",
			"06c0045ebeeeb067815c128ba6b8d57275faf2d4dbe453e423b8c2d993317b46",
			"dbbcd0002410ac1ceb0ab34db598135b806aff573240fc30d37da5d0c09e0b6b",
		},
		stats: Stats{MessagesDelivered: 385, BytesDelivered: 1180, ForgeriesDropped: 1, DroppedDown: 51, Transmissions: 131},
	},
	{
		name: "sync",
		cfg:  Config{N: goldenN, Mode: Sync, Seed: 43},
		nodes: [goldenN]string{
			"36bc41f45a4eb0028ade912d5336ca1723b5c800a9b0a8b6ef139ccf55afe76c",
			"d0e701a7491bb887046288cbb3bb626b5e2a8b8e3d82c7746b2862a1577d4749",
			"46f001456c515006091a696be148c9d6f943fc63239ce0616e12e0d8218cbaed",
			"e9863f13e818e037bfb3689e94d904ed7a71e2e4fb707c7edc90fdc5021654fc",
			"b2bbf66ec2fac38f65b1170417da264948d99a75c1b5393725d5e358772360bb",
			"a586e49dc0799ec1acfd9d53a2c6c33a739291b7eb0a8ad826940c343d32ec22",
			"24e485ab2e8adff1198c5edf9a4ca266108429cb389a5daf384e10dccc6c19e9",
		},
		stats: Stats{MessagesDelivered: 392, BytesDelivered: 1201, ForgeriesDropped: 1, DroppedDown: 44, Transmissions: 131},
	},
}

// hashContent folds one node's deliveries of one round into h: the round,
// the count, then each message's (From, To, Round, Kind, Payload),
// variable-length fields length-prefixed.
func hashContent(h hash.Hash, round int, msgs []Message) {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, uint64(round))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(msgs)))
	for _, m := range msgs {
		b = binary.LittleEndian.AppendUint64(b, uint64(m.From))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.To))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Round))
		for _, field := range [][]byte{[]byte(m.Kind), m.Payload} {
			b = binary.LittleEndian.AppendUint64(b, uint64(len(field)))
			b = append(b, field...)
		}
	}
	h.Write(b)
}

// TestNetworkDeliveryContentGolden pins the simulated network's delivery
// semantics by content — who receives what, in which order, in which
// round, and what the counters say — across broadcasts, unicast and
// equivocating sends, no-equivocation coercion, seeded and DelayFn-chosen
// pre-GST delays, crashes at enqueue and in flight, and a refused forgery.
// How the network authenticates a sender is not part of what it delivers.
// Every way of reading an inbox must reproduce it.
func TestNetworkDeliveryContentGolden(t *testing.T) {
	for _, g := range contentGoldens {
		t.Run(g.name, func(t *testing.T) {
			for _, r := range deliveryReads {
				got, stats := goldenSchedule(t, g.cfg, r.read, hashContent)
				for i := range got {
					if got[i] != g.nodes[i] {
						t.Errorf("%s: node %d content digest %s, want %s", r.name, i, got[i], g.nodes[i])
					}
				}
				if stats != g.stats {
					t.Errorf("%s: stats %+v, want %+v", r.name, stats, g.stats)
				}
			}
		})
	}
}
