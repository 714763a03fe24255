package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mochy/internal/cp"
	"mochy/internal/dynamic"
	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/nullmodel"
	"mochy/internal/projection"
)

// The profile workload is the paper's own task run through the library with
// no daemon. One operation compares two domains: the exact characteristic
// profile (MoCHy-E on the real graph and on fresh Chung-Lu copies) of a
// sparse coauthorship graph, the MoCHy-A+ profile of a dense email graph,
// and their correlation.

const (
	// profileCopies is the number of Chung-Lu copies per profile.
	profileCopies = 3
	// wedgeShare is the share of the projected graph's hyperwedges MoCHy-A+
	// samples.
	wedgeShare = 0.1
	// The exact-profile graph is cut to coauthPairs of MoCHy-E pair work so
	// the exact half takes most of an operation, and the sampled-profile
	// graph to emailWedges hyperwedges, which fixes how many samples
	// MoCHy-A+ draws. The draws leave every seed's graph room to reach its
	// budget.
	coauthNodes, coauthDraws, coauthPairs = 2000, 4200, 4_000_000
	emailNodes, emailDraws, emailWedges   = 100, 1000, 24_000
)

// profileInputs is one set-up round's state.
type profileInputs struct {
	coauth, email *hypergraph.Hypergraph
	nullA, nullB  *nullmodel.Randomizer
	// wantCoauth is the coauthorship graph's exact counts from the
	// independent incremental counter; exactEmail the email graph's exact
	// counts, the reference for the MoCHy-A+ estimate.
	wantCoauth counting.Counts
	exactEmail counting.Counts
}

func setupProfile(seed int64) (*profileInputs, error) {
	in := &profileInputs{}
	var err error
	if in.coauth, err = workGraph(seed, 0, generator.Coauthorship, coauthNodes, coauthDraws,
		func(w work) bool { return w.pairs >= coauthPairs }); err != nil {
		return nil, err
	}
	if in.email, err = workGraph(seed, 1, generator.Email, emailNodes, emailDraws,
		func(w work) bool { return w.wedges >= emailWedges }); err != nil {
		return nil, err
	}
	in.nullA = nullmodel.NewRandomizer(in.coauth)
	in.nullB = nullmodel.NewRandomizer(in.email)
	dyn, _, err := dynamic.FromHypergraph(in.coauth)
	if err != nil {
		return nil, fmt.Errorf("incremental baseline: %w", err)
	}
	in.wantCoauth = dyn.Counts()
	in.exactEmail = counting.CountExact(in.email, projection.Build(in.email), kernelWorkers)
	return in, nil
}

// profileStats accumulates the traced operations' layer counters.
type profileStats struct {
	enumerate                  time.Duration
	imbalance                  float64
	kernelRuns                 int
	instances, samples, wedges float64
}

// profileOp is one operation's outcome.
type profileOp struct {
	total, sampled time.Duration
	estimate       counting.Counts
	corr           float64
}

// runProfileOp runs one operation. Every call into a layer is a span of
// operation op (untraced when op is 0); kernel counters accumulate into st
// when it is non-nil.
func runProfileOp(ctx context.Context, in *profileInputs, seed int64, idx int, o opCtx, st *profileStats, out *outcome) (profileOp, error) {
	var res profileOp
	start := time.Now()
	build := func(g *hypergraph.Hypergraph) *projection.Projected {
		sp := o.span("projection.build")
		p := projection.Build(g)
		sp.end()
		if st != nil {
			st.wedges += float64(p.NumWedges())
		}
		return p
	}
	generate := func(r *nullmodel.Randomizer, k int) *hypergraph.Hypergraph {
		sp := o.span("nullmodel.generate")
		g := r.Generate(rand.New(rand.NewSource(subSeed(seed, streamNull, int64(idx), int64(k)))))
		sp.end()
		return g
	}
	exact := func(g *hypergraph.Hypergraph) (counting.Counts, error) {
		p := build(g)
		sp := o.span("mochy.exact")
		c, ks, err := counting.CountExactOpts(ctx, g, p, counting.Options{Workers: kernelWorkers})
		sp.end()
		if st != nil {
			st.enumerate += ks.Enumerate
			st.imbalance += ks.Imbalance
			st.kernelRuns++
			st.instances += c.Total()
		}
		return c, err
	}
	sample := func(g *hypergraph.Hypergraph, k int) counting.Counts {
		p := build(g)
		r := int(wedgeShare * float64(p.NumWedges()))
		sp := o.span("mochy.sample")
		c := counting.CountWedgeSamples(g, p, p, r, subSeed(seed, streamSample, int64(k)), kernelWorkers)
		sp.end()
		if st != nil {
			st.samples += float64(r)
		}
		return c
	}
	profile := func(real counting.Counts, copies []*counting.Counts) cp.Profile {
		sp := o.span("cp.compute")
		p := cp.Compute(&real, copies)
		sp.end()
		return p
	}

	real, err := exact(in.coauth)
	if err != nil {
		return res, err
	}
	out.check(real == in.wantCoauth, "profile: MoCHy-E counts of the coauthorship graph differ from the incremental counter")
	copies := make([]*counting.Counts, profileCopies)
	for k := range copies {
		c, err := exact(generate(in.nullA, k))
		if err != nil {
			return res, err
		}
		copies[k] = &c
	}
	cpA := profile(real, copies)

	sampledStart := time.Now()
	res.estimate = sample(in.email, 0)
	for k := range copies {
		c := sample(generate(in.nullB, profileCopies+k), 1+k)
		copies[k] = &c
	}
	cpB := profile(res.estimate, copies)
	sp := o.span("cp.correlation")
	res.corr = cp.Correlation(cpA, cpB)
	sp.end()
	res.sampled = time.Since(sampledStart)
	res.total = time.Since(start)

	for _, p := range []cp.Profile{cpA, cpB} {
		norm := p.Norm()
		out.check(!math.IsNaN(norm) && math.Abs(norm-1) < 1e-9, "profile: characteristic profile norm %v, want 1", norm)
	}
	out.check(!math.IsNaN(res.corr) && !math.IsInf(res.corr, 0), "profile: correlation %v is not finite", res.corr)
	return res, nil
}

// relError is the MoCHy-A+ relative error Σ|est−exact| / Σexact.
func relError(est, exact counting.Counts) float64 {
	var num, den float64
	for i := range exact {
		num += math.Abs(est[i] - exact[i])
		den += exact[i]
	}
	return ratio(num, den)
}

// maxRelError bounds the MoCHy-A+ estimate's relative error at wedgeShare;
// beyond it the sampler is wrong, not unlucky.
const maxRelError = 0.1

func runProfile(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	in, rounds, err := setupRepeated(func(int) (*profileInputs, error) { return setupProfile(cfg.seed) }, func(*profileInputs) {})
	if err != nil {
		return nil, err
	}
	out.setupTimes(rounds)
	var tr *tracer
	var st *profileStats
	if cfg.trace {
		tr, st = newTracer(), &profileStats{}
	}
	var totals, sampled, tracedTotals, untracedTotals samples
	var estimate counting.Counts
	alloc0, gc0 := memCounters()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(cfg.window())
	for idx := 0; time.Now().Before(deadline); idx++ {
		o := opCtx{tr: tr}
		if tr != nil && idx%2 == 1 {
			o.op = tr.newOp()
		}
		root := tr.start(o.op, 0, "op.profile")
		o.parent = root.id
		out.attempted++
		res, err := runProfileOp(ctx, in, cfg.seed, idx, o, st, out)
		root.end()
		if err != nil {
			out.failed++
			out.note("profile op %d failed: %v", idx, err)
			continue
		}
		if idx > 0 {
			out.check(res.estimate == estimate, "profile: MoCHy-A+ estimate changed between operations with a fixed seed")
		}
		estimate = res.estimate
		totals = append(totals, res.total)
		sampled = append(sampled, res.sampled)
		if o.op != 0 {
			tracedTotals = append(tracedTotals, res.total)
		} else {
			untracedTotals = append(untracedTotals, res.total)
		}
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	alloc1, gc1 := memCounters()
	done := float64(len(totals))
	if done == 0 {
		return nil, fmt.Errorf("no operation completed in %v", wall)
	}
	relErr := relError(estimate, in.exactEmail)
	out.check(relErr < maxRelError, "profile: MoCHy-A+ relative error %.4f exceeds %.2f", relErr, maxRelError)

	m := out.metrics
	m["peak_rss_mb"] = peakRSSMB()
	m["cpu_ms_per_op"] = ms(cpu) / done
	m["ops_per_s"] = done / wall.Seconds()
	m["main_p50_ms"] = ms(totals.sorted().quantile(0.5))
	m["side_p50_ms"] = ms(sampled.sorted().quantile(0.5))
	m["profile_p50_s"] = totals.sorted().quantile(0.5).Seconds()
	m["estimate_rel_error"] = relErr
	m["go.alloc_bytes_per_op"] = float64(alloc1-alloc0) / done
	m["go.gc_cycles_per_kop"] = float64(gc1-gc0) / done * 1000
	out.note("profile: %d ops in %.1f s; %s; %s; coauth %d edges, email %d edges; estimate rel error %.4f",
		len(totals), wall.Seconds(), totals.sorted().summary("whole op"), sampled.sorted().summary("sampled half"),
		in.coauth.NumEdges(), in.email.NumEdges(), relErr)

	if tr != nil {
		spans := tr.snapshot()
		self := selfPerOp(spans, out)
		m["mochy.exact_ms"] = self["mochy.exact"]
		m["mochy.sample_ms"] = self["mochy.sample"]
		m["projection.build_ms"] = self["projection.build"]
		m["nullmodel.generate_ms"] = self["nullmodel.generate"]
		m["cp.compute_ms"] = self["cp.compute"]
		// Kernel counters are per operation over all operations.
		m["mochy.enumerate_ms"] = ms(st.enumerate) / done
		m["mochy.imbalance"] = ratio(st.imbalance, float64(st.kernelRuns))
		m["mochy.instances"] = st.instances / done
		m["mochy.samples"] = st.samples / done
		m["projection.wedges"] = st.wedges / done
		m["obs.trace_overhead"] = ratio(ms(tracedTotals.sorted().quantile(0.5)), ms(untracedTotals.sorted().quantile(0.5))) - 1
		if err := writeSpans(cfg.spansPath("profile"), spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}
