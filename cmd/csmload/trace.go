package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"codedsm/internal/transport"
)

// span is one timed interval at a layer boundary. Spans of one batch
// share its id; parent is the id of the span that caused this one (0 for
// a batch's root). Times are nanoseconds since the run's epoch.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Batch   int    `json:"batch"`
	Parent  int    `json:"parent"`
	Node    int    `json:"node"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// record stores a finished span.
func (t *tracer) record(name, layer string, batch, parent, node int, start, end time.Time) {
	t.finish(t.reserve(), name, layer, batch, parent, node, start, end)
}

// reserve allocates an id for a span whose children finish (and are
// recorded) before it does; finish fills it in.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

func (t *tracer) finish(id int, name, layer string, batch, parent, node int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		ID: id, Name: name, Layer: layer, Batch: batch, Parent: parent, Node: node,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	}
}

// flush writes the spans as JSON lines to dir/<workload>.spans.jsonl.
func (t *tracer) flush(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// linkCounts is what the Link decorator has seen on one node.
type linkCounts struct {
	msgs, bytes    uint64 // messages handed to Send/Broadcast (one per recipient) and their payload bytes
	steps          uint64
	stepWait, send time.Duration
	sign, verify   time.Duration
}

// tracedLink interposes on the transport.Link handed to NewNodeProcess:
// it times and counts every call and records a span for each, parented
// to the node's current batch call. Only the node's own goroutine drives
// a link, so the counters need no lock. It changes no argument and no
// result: TestDecoratorIsTransparent pins that a decorated run ends with
// the same digests and outputs as a bare one.
type tracedLink struct {
	transport.Link
	tr     *tracer
	node   int
	batch  int    // current batch id, set by the node goroutine before each call into the engine
	parent int    // span id of that call
	last   string // kind of the most recent Send/Broadcast: labels the Step that carries it
	c      linkCounts
}

func (l *tracedLink) Send(to transport.NodeID, kind string, payload []byte) error {
	start := time.Now()
	err := l.Link.Send(to, kind, payload)
	end := time.Now()
	l.sent(kind, 1, len(payload), start, end)
	return err
}

func (l *tracedLink) Broadcast(kind string, payload []byte) error {
	start := time.Now()
	err := l.Link.Broadcast(kind, payload)
	end := time.Now()
	l.sent(kind, l.N()-1, len(payload), start, end)
	return err
}

func (l *tracedLink) sent(kind string, copies, size int, start, end time.Time) {
	l.c.msgs += uint64(copies)
	l.c.bytes += uint64(copies * size)
	l.c.send += end.Sub(start)
	l.last = kind
	l.tr.record("send:"+kind, "transport", l.batch, l.parent, l.node, start, end)
}

func (l *tracedLink) Step() ([]transport.Message, error) {
	start := time.Now()
	msgs, err := l.Link.Step()
	end := time.Now()
	l.c.steps++
	l.c.stepWait += end.Sub(start)
	l.tr.record("step:"+l.last, "transport", l.batch, l.parent, l.node, start, end)
	return msgs, err
}

func (l *tracedLink) SignBlob(context string, data []byte) []byte {
	start := time.Now()
	sig := l.Link.SignBlob(context, data)
	end := time.Now()
	l.c.sign += end.Sub(start)
	l.tr.record("sign:"+context, "transport", l.batch, l.parent, l.node, start, end)
	return sig
}

func (l *tracedLink) VerifyBlob(id transport.NodeID, context string, data, sig []byte) bool {
	start := time.Now()
	ok := l.Link.VerifyBlob(id, context, data, sig)
	end := time.Now()
	l.c.verify += end.Sub(start)
	l.tr.record("verify:"+context, "transport", l.batch, l.parent, l.node, start, end)
	return ok
}
