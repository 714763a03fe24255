package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval: a call into a layer made from the
// benchmark's own code. Spans of one operation share Op; Parent is the
// enclosing span's ID (0 for the operation's root).
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	ids   atomic.Uint64
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; end records it.
type active struct {
	t      *tracer
	op, id uint64
	parent uint64
	name   string
	start  time.Time
}

// newOp returns a fresh operation id (0, meaning untraced, on a nil
// tracer).
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// start opens a span of operation op under parent. It records nothing when
// op is 0, the id of an untraced operation.
func (t *tracer) start(op, parent uint64, name string) active {
	if t == nil || op == 0 {
		return active{}
	}
	return active{t: t, op: op, id: t.ids.Add(1), parent: parent, name: name, start: time.Now()}
}

func (a active) end() {
	if a.t == nil {
		return
	}
	end := time.Now()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, span{
		Op: a.op, ID: a.id, Parent: a.parent, Name: a.name,
		Start: int64(a.start.Sub(a.t.epoch)), End: int64(end.Sub(a.t.epoch)),
	})
	a.t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is one span name's aggregate self time.
type layerTime struct {
	Name  string
	Self  time.Duration
	Count int
}

// selfTimes returns each span name's total self time — its duration minus
// the part of it that its child spans cover — and the number of distinct
// operations the spans belong to.
func selfTimes(spans []span) ([]layerTime, int) {
	children := make(map[uint64][]span)
	ops := make(map[uint64]struct{})
	for _, s := range spans {
		ops[s.Op] = struct{}{}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		covered := coveredWithin(s.Start, s.End, children[s.ID])
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Self += time.Duration(s.End - s.Start - covered)
		lt.Count++
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, len(ops)
}

// selfPerOp returns each span name's self time in ms per traced operation
// and prints the table as notes.
func selfPerOp(spans []span, out *outcome) map[string]float64 {
	layers, ops := selfTimes(spans)
	perOp := make(map[string]float64, len(layers))
	for _, l := range layers {
		perOp[l.Name] = ratio(ms(l.Self), float64(ops))
		out.note("  self %-22s %10.4f ms/op (%d spans)", l.Name, perOp[l.Name], l.Count)
	}
	return perOp
}

// coveredWithin returns how much of [start, end) the union of the
// children's intervals covers; overlapping children count once.
func coveredWithin(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// maxWrittenSpans caps the spans written out per run, so a long serve run
// (hundreds of thousands of spans) leaves a file of bounded size.
const maxWrittenSpans = 20000

// writeSpans writes up to maxWrittenSpans spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i == maxWrittenSpans {
			break
		}
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
