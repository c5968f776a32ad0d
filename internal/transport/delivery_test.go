package transport

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
	"testing"
)

// goldenN is the cluster size of the pinned delivery schedule.
const goldenN = 7

// deliveryGoldens pins, per network configuration, what every node of an
// N=7 network receives under one seeded schedule (goldenSchedule): one
// SHA-256 per node over its delivered sequence, round by round, and the
// network's final Stats. The values were recorded from the per-copy
// network; any change to the delivery path must reproduce them exactly.
var deliveryGoldens = []struct {
	name  string
	cfg   Config
	nodes [goldenN]string
	stats Stats
}{
	{
		name: "psync-random-noequivocation",
		cfg:  Config{N: goldenN, Mode: PartialSync, GST: 5, MaxPreGSTDelay: 3, NoEquivocation: true, Seed: 41},
		nodes: [goldenN]string{
			"d8ee3961b34306b63043cf8f002e527332cc36ac9bc2d6064fc5f4b5522d227a",
			"705c68ec05e5134ebaad0dc493409059eda935148f87cb7e1c1a96d0785125a6",
			"8fa71ec98cd6913c066d42550025953f870bfe8ddb07aad82183eaef4a9c52b2",
			"42fe57591da28afd32633060eb8807387cd6a85a7ea2b8e319b61c7d4b4d4b5e",
			"c00a79c112db4a24f201833cb8db1d4c478d756516054aa7cea02f4b1644bf14",
			"ca09049657ff9c9f6c2179316ebce0017d24520320629837b33d5f564d501c66",
			"10babe93970d5231fadf085170ac75064eec1c41947559f6030e84255e6aaf19",
		},
		stats: Stats{MessagesDelivered: 384, BytesDelivered: 1173, ForgeriesDropped: 1, RandomDelays: 197, DroppedDown: 52},
	},
	{
		name: "psync-delayfn",
		cfg: Config{N: goldenN, Mode: PartialSync, GST: 5, MaxPreGSTDelay: 3, Seed: 42,
			DelayFn: func(from, to NodeID, round int) int { return 1 + (3*int(from)+5*int(to)+round)%4 }},
		nodes: [goldenN]string{
			"5ea06e569c59ec0d8c0aca7e9e268b1bd6f8a00fedf0095f560b616475e9fc76",
			"dd0fe2bbca7716fb2ccec3dfe3f845d536662ba70e22dd591c7954521528ef7e",
			"d8de0f619d091dc4e40d4ff6057576bc90cf7f63f3499a0223f6998286d9129b",
			"a14ed17fc203bc40b03f718052a7c7735e97cf6754af0e8d688088d556348905",
			"8cd30465a14e41ed94739060b7630b35a261e23f617c2f9f20952734efc504f9",
			"cbe4729b1c13e55a480e76be472a4ff5a248349ec14ce82e8c762d3e217839c9",
			"6ed63b7afbc979678a0d2e2d09e7cacb11f2710303e1d317f7b8360c2cb24623",
		},
		stats: Stats{MessagesDelivered: 385, BytesDelivered: 1180, ForgeriesDropped: 1, DroppedDown: 51},
	},
	{
		name: "sync",
		cfg:  Config{N: goldenN, Mode: Sync, Seed: 43},
		nodes: [goldenN]string{
			"ed8d684ec54a2b5f5a03e32654cfae12830cbc25a6d2524ea8ca6d7aa0d16258",
			"a24538af242870ba8056122e7d97cdf78914fcd6bd4869f3b7d120791238ae33",
			"ab6e3197c8c61bbbdf15c6a8f3c2553b6588356ef2f26d8030116a91b7864ae6",
			"81d9ffad8fa4366b46d1202cf40e4adf8a7147c41547595e8a9d894fde2cecc4",
			"e64f9006c803c638a4ff400e535761a0e03b66614626c3894a1d7d323e713f16",
			"aea978c54b38da323be24cd3103477291ed20fe025f3f695b6934108399bd10e",
			"175ad264f53627c920d28a0904e70ae20e4d45533a7029fd0d1953315c03152d",
		},
		stats: Stats{MessagesDelivered: 392, BytesDelivered: 1201, ForgeriesDropped: 1, DroppedDown: 44},
	},
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
func goldenSchedule(t *testing.T, cfg Config, read func(*Endpoint) []Message) ([goldenN]string, Stats) {
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
				net.Inject(Message{From: 0, To: 3, Round: r, Kind: "b", Payload: []byte("forged"),
					Sig: make([]byte, ed25519.SignatureSize)})
			}
		}
		if r == 4 {
			must(net.SetDown(6, true))
		}
		net.Step()
		for i, ep := range eps {
			hashDeliveries(hs[i], net.Round(), read(ep))
		}
	}
	var out [goldenN]string
	for i, h := range hs {
		out[i] = hex.EncodeToString(h.Sum(nil))
	}
	return out, net.Stats()
}

// hashDeliveries folds one node's deliveries of one round into h: the
// round, the count, then each message's (From, To, Round, Kind, Payload,
// Sig), variable-length fields length-prefixed.
func hashDeliveries(h hash.Hash, round int, msgs []Message) {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, uint64(round))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(msgs)))
	for _, m := range msgs {
		b = binary.LittleEndian.AppendUint64(b, uint64(m.From))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.To))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Round))
		for _, field := range [][]byte{[]byte(m.Kind), m.Payload, m.Sig} {
			b = binary.LittleEndian.AppendUint64(b, uint64(len(field)))
			b = append(b, field...)
		}
	}
	h.Write(b)
}

// TestNetworkDeliveryGolden pins the simulated network's delivery
// semantics — who receives what, in which order, in which round, with
// which signature, and what the counters say — across broadcasts, unicast
// and equivocating sends, no-equivocation coercion, seeded and
// DelayFn-chosen pre-GST delays, crashes at enqueue and in flight, and a
// refused forgery. Both ways of reading an inbox, Receive and ranging
// over Deliveries, must reproduce it.
func TestNetworkDeliveryGolden(t *testing.T) {
	reads := []struct {
		name string
		read func(*Endpoint) []Message
	}{
		{"Receive", (*Endpoint).Receive},
		{"Deliveries", func(ep *Endpoint) []Message { return slices.Collect(ep.Deliveries()) }},
	}
	for _, g := range deliveryGoldens {
		t.Run(g.name, func(t *testing.T) {
			for _, r := range reads {
				got, stats := goldenSchedule(t, g.cfg, r.read)
				for i := range got {
					if got[i] != g.nodes[i] {
						t.Errorf("%s: node %d delivery digest %s, want %s", r.name, i, got[i], g.nodes[i])
					}
				}
				if stats != g.stats {
					t.Errorf("%s: stats %+v, want %+v", r.name, stats, g.stats)
				}
			}
		})
	}
}
