package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Span names. The driver records spans only from its own files, around its
// calls into the layers (choosing-metrics guide §4); spans inside the
// runtime are a later change.
const (
	spanChunk   = iota // one chunk of the closed loop, PE 0 clock read to clock read
	spanHandler        // a driver handler / entry-method body
	spanSend           // the driver's call into the messaging layer (pe.Send, Array.Send, Engine.Start, Simulation.Run)
	spanCollect        // Array.Contribute / Array.Broadcast from the driver
)

var spanNames = [...]string{"chunk", "handler", "send", "collective"}

// span is one recorded interval. Spans of one chunk share Op, the chunk's
// index; Parent is the id of the span that caused this one (0 for chunks).
type span struct {
	ID, Parent int64
	Op         int64
	Start, End int64 // ns since the tracer's epoch
	Name       uint8
}

// spanRingCap bounds the spans kept per PE: the ring is allocated once, so
// the traced run's heap does not grow with run length, and the span file
// stays a few MB. The ring keeps the most recent spans.
const spanRingCap = 1 << 13

// spanRing is a single-writer ring: each PE's scheduler goroutine owns one.
type spanRing struct {
	buf []span
	n   int64 // spans ever recorded
	seq int64 // ids handed out
	_   [40]byte
}

// tracer records driver spans in memory and writes them out at exit. A nil
// *tracer is the end-to-end run: open, done, beginChunk and endChunk are
// small nil-checking wrappers the compiler inlines, so the untraced loop
// pays one predictable branch per call site.
type tracer struct {
	epoch time.Time
	rings [2]spanRing
	// The open chunk span, written by PE 0 only. chunk and op publish it so
	// that handlers on PE 1 can name it as their parent.
	chunkID, chunkStart int64
	chunk               atomic.Int64
	op                  atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	for i := range t.rings {
		t.rings[i].buf = make([]span, spanRingCap)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span on pe (0 or 1), returning its id and start time.
func (t *tracer) open(pe int) (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.start(pe)
}

func (t *tracer) start(pe int) (id, start int64) {
	r := &t.rings[pe]
	r.seq++
	return r.seq<<1 | int64(pe), t.now()
}

// done records the span opened by open.
func (t *tracer) done(pe int, name uint8, id, parent, start int64) {
	if t != nil {
		t.record(pe, name, id, parent, start)
	}
}

func (t *tracer) record(pe int, name uint8, id, parent, start int64) {
	r := &t.rings[pe]
	r.buf[r.n%spanRingCap] = span{ID: id, Parent: parent, Op: t.op.Load(), Start: start, End: t.now(), Name: name}
	r.n++
}

// inChunk is the id of the open chunk span, the parent of handler spans.
func (t *tracer) inChunk() int64 {
	if t == nil {
		return 0
	}
	return t.chunk.Load()
}

// beginChunk opens the next chunk span; endChunk records it. PE 0 only.
func (t *tracer) beginChunk() int64 {
	if t == nil {
		return 0
	}
	t.chunkID, t.chunkStart = t.start(0)
	t.op.Add(1)
	t.chunk.Store(t.chunkID)
	return t.chunkID
}

func (t *tracer) endChunk() {
	if t != nil {
		t.record(0, spanChunk, t.chunkID, 0, t.chunkStart)
	}
}

// spans returns everything still in the rings, ordered by start time.
func (t *tracer) spans() []span {
	var out []span
	for i := range t.rings {
		r := &t.rings[i]
		n := r.n
		if n > spanRingCap {
			n = spanRingCap
		}
		out = append(out, r.buf[:n]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval covered by its child spans (overlapping children are
// counted once; children are clipped to the parent).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanStats reduces the recorded spans to the medians the per-layer
// metrics report: duration of send/collective spans, self time of handler
// bodies.
func spanStats(spans []span) (sendP50, handlerSelfP50 float64) {
	self := selfTimes(spans)
	var sends, handlers []float64
	for _, s := range spans {
		switch s.Name {
		case spanSend:
			sends = append(sends, float64(s.End-s.Start))
		case spanHandler:
			handlers = append(handlers, float64(self[s.ID]))
		}
	}
	return median(sends), median(handlers)
}

type spanJSON struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// writeSpans writes the recorded spans to path as a JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := selfTimes(spans)
	out := make([]spanJSON, len(spans))
	for i, s := range spans {
		out[i] = spanJSON{spanNames[s.Name], s.ID, s.Parent, s.Op, s.Start, s.End, self[s.ID]}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
