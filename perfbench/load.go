package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mochy/client"
)

// opCtx is what one operation needs to open spans under its root.
type opCtx struct {
	tr     *tracer
	op     uint64
	parent uint64
}

// span opens a child span of the operation (a no-op when untraced).
func (o opCtx) span(name string) active { return o.tr.start(o.op, o.parent, name) }

// traceCtx stamps a traced operation's id on its daemon calls, so the
// daemon's own spans join the benchmark's.
func (o opCtx) traceCtx(ctx context.Context) context.Context {
	if o.op == 0 {
		return ctx
	}
	return client.WithTrace(ctx, fmt.Sprintf("perfbench-%d", o.op))
}

// worker is one closed-loop caller. next picks its next operation from its
// own seeded sequence and returns the operation's class and body; the body
// reports a failed or refused call as an error and a wrong answer through
// the workload's correctness tally.
type worker interface {
	next() (class int, run func(ctx context.Context, o opCtx) error)
}

// record is one completed operation.
type record struct {
	class  int
	traced bool
	dur    time.Duration
	// at is when the operation ended, from the window's start.
	at time.Duration
}

// loadResult is one closed-loop window.
type loadResult struct {
	records   []record
	wall      time.Duration
	cpu       time.Duration
	attempted int
	failed    int
	firstErr  error
}

// byClass returns the latencies of one class, optionally only the traced or
// only the untraced ones (both when which is nil).
func (r *loadResult) byClass(class int, which *bool) samples {
	var out samples
	for _, rec := range r.records {
		if rec.class == class && (which == nil || rec.traced == *which) {
			out = append(out, rec.dur)
		}
	}
	return out
}

// runLoad drives each worker in its own goroutine, back to back, for d (or
// for n operations each when n > 0, as a warm-up). Each operation is timed
// by a client-side stopwatch around its body. With a tracer, every other
// operation of each worker is traced, so traced and untraced operations
// interleave finely and their latencies compare without drift.
func runLoad(ctx context.Context, workers []worker, d time.Duration, n int, tr *tracer, classNames []string) loadResult {
	// Records go into fixed-size chunks, so the memory a run holds grows
	// with its operations instead of in doubling steps that would make
	// peak RSS jump with small changes in throughput.
	const chunk = 8192
	type part struct {
		chunks            [][]record
		attempted, failed int
		firstErr          error
	}
	parts := make([]part, len(workers))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	finished := func(k int) bool {
		if n > 0 {
			return k == n
		}
		return !time.Now().Before(deadline)
	}
	for i, w := range workers {
		wg.Add(1)
		go func(p *part, w worker) {
			defer wg.Done()
			for k := 0; !finished(k); k++ {
				class, body := w.next()
				o := opCtx{tr: tr}
				if tr != nil && k%2 == 1 {
					o.op = tr.newOp()
				}
				root := tr.start(o.op, 0, "op."+classNames[class])
				o.parent = root.id
				t0 := time.Now()
				err := body(ctx, o)
				dur := time.Since(t0)
				root.end()
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("%s: %w", classNames[class], err)
					}
					continue
				}
				if len(p.chunks) == 0 || len(p.chunks[len(p.chunks)-1]) == chunk {
					p.chunks = append(p.chunks, make([]record, 0, chunk))
				}
				last := &p.chunks[len(p.chunks)-1]
				*last = append(*last, record{class: class, traced: o.op != 0, dur: dur, at: t0.Add(dur).Sub(start)})
			}
		}(&parts[i], w)
	}
	wg.Wait()
	res := loadResult{wall: time.Since(start), cpu: cpuTime() - cpu0}
	total := 0
	for _, p := range parts {
		for _, c := range p.chunks {
			total += len(c)
		}
	}
	res.records = make([]record, 0, total)
	for _, p := range parts {
		for _, c := range p.chunks {
			res.records = append(res.records, c...)
		}
		res.attempted += p.attempted
		res.failed += p.failed
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
	}
	return res
}
