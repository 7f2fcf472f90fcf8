package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/qcache"
	"repro/oasis"
)

// oracleSample is how many answered queries per run are compared with the
// exhaustive Smith-Waterman oracle after the timed window.
const oracleSample = 6

// failedLatencyMS stands in for the latency of a failed request, so that a
// failure misses every latency limit.
const failedLatencyMS = 1e6

// e2e is what a user saw during one measured phase: wall-clock latencies,
// and the CPU time the serving process spent on each request, which the
// end-to-end metrics report (see cpuclock.go).
type e2e struct {
	lat, first    dist
	cpu, cpuFirst dist
	// replay holds the latencies of requests the result cache answered,
	// as the server timed them when there is one.
	replay dist
	// self holds, for requests to a server, the client's latency minus the
	// server's own time.
	self dist
	// columns and indexRuns count the work of requests the index answered.
	columns   int64
	indexRuns int
	done      int
	hits      int
	elapsed   time.Duration
	// cpuElapsed is the serving process's CPU time over the phase.
	cpuElapsed time.Duration
	// untraced, in a traced phase, holds the requests sent without a span:
	// every other request, so both halves see the same system state.
	untraced *e2e
}

func (e *e2e) record(o outcome) {
	e.done++
	if !o.ok {
		e.lat = append(e.lat, failedLatencyMS)
		return
	}
	e.lat.add(o.latency())
	if o.firstHit >= 0 {
		e.first.add(o.firstHit - o.due)
	}
}

// recordSent records one closed-loop request.
func (e *e2e) recordSent(s sent) {
	o := outcome{end: s.end.Sub(s.start), firstHit: -1, ok: s.ok}
	if !s.first.IsZero() {
		o.firstHit = s.first.Sub(s.start)
	}
	e.record(o)
	e.hits += s.hits
	if !s.ok {
		e.cpu = append(e.cpu, failedLatencyMS)
		return
	}
	e.cpu.add(s.cpuEnd - s.cpuStart)
	if !s.first.IsZero() {
		e.cpuFirst.add(s.cpuFirst - s.cpuStart)
	}
	if s.rep.server >= 0 {
		e.self.add(o.end - s.rep.server)
	}
	switch {
	case s.rep.stats.ColumnsExpanded > 0:
		e.columns += s.rep.stats.ColumnsExpanded
		e.indexRuns++
	case s.rep.server >= 0:
		e.replay.add(s.rep.server)
	default:
		e.replay.add(o.end)
	}
}

func (e *e2e) qps() float64 { return float64(e.done) / e.elapsed.Seconds() }

// report sets the end-to-end metrics, which are CPU times of the serving
// process, and the same metrics in wall-clock time, which are reported per
// layer because the host's stolen share moves them.
func (r *runCtx) report(e *e2e) {
	// The p99 metrics stay p99 on a run too slow to put ten samples beyond
	// it, so that every run reports the same statistic; the run says so.
	if beyond(len(e.cpuFirst), 99) < 10 {
		fmt.Printf("note: %d samples put fewer than ten beyond p99\n", len(e.cpuFirst))
	}
	r.set("queries_per_cpu_s", float64(e.done)/e.cpuElapsed.Seconds())
	r.set("query_cpu_p50_ms", e.cpu.p50())
	r.set("query_cpu_p99_ms", percentile(e.cpu, 99))
	r.set("first_hit_cpu_p50_ms", e.cpuFirst.p50())
	// Too sparse to gate on: on disk-serve-zipf three requests in ten are
	// cache replays whose first hit comes at once, and this p99 spread 0.19
	// and 0.24 (interquartile range over median) in two sets of seeds, so
	// it is reported per layer.
	r.set("tail.first_hit_cpu_p99_ms", percentile(e.cpuFirst, 99))
	r.set("wall.queries_per_s", e.qps())
	r.set("wall.query_p50_ms", e.lat.p50())
	r.set("wall.query_p99_ms", val(e.lat.tail(99)))
	r.set("wall.first_hit_p50_ms", e.first.p50())
	r.set("wall.first_hit_p99_ms", val(e.first.tail(99)))
	fmt.Printf("samples: %d queries (%d with hits) in %.2fs, %.2f CPU s\n", len(e.cpu), len(e.cpuFirst), e.elapsed.Seconds(), e.cpuElapsed.Seconds())
}

// overhead reports, for a traced phase, the traced requests' value minus
// the untraced requests' for every end-to-end metric the tracer can affect.
// Requests alternate, so the rate compared is 1 / mean CPU time.
func (r *runCtx) overhead(traced *e2e) {
	rate := func(e *e2e) float64 { return 1000 / e.cpu.mean() }
	on, off := traced, traced.untraced
	r.set("trace.delta_queries_per_cpu_s", rate(on)-rate(off))
	r.set("trace.delta_query_cpu_p50_ms", on.cpu.p50()-off.cpu.p50())
	r.set("trace.delta_query_cpu_p99_ms", val(on.cpu.tail(99))-val(off.cpu.tail(99)))
	r.set("trace.delta_first_hit_cpu_p50_ms", on.cpuFirst.p50()-off.cpuFirst.p50())
	r.set("trace.delta_first_hit_cpu_p99_ms", val(on.cpuFirst.tail(99))-val(off.cpuFirst.tail(99)))
	fmt.Printf("traced phase: %d requests with spans, %d without\n", len(on.lat), len(off.lat))
}

// checker holds the answer checks every request passes through.  It is
// safe for concurrent use.
type checker struct {
	mu     sync.Mutex
	sample sampleCheck
	// seen maps a pool query to its first answer's digest: a repeated query
	// must return the same multiset.
	seen map[int][32]byte
	// keep selects the hits the repeat check compares (nil: all).
	keep func(hitKey) bool
	// extra, when set, is a workload's own check of an answer.
	extra func(answer) string
}

func newChecker() *checker {
	return &checker{sample: sampleCheck{want: oracleSample}, seen: map[int][32]byte{}}
}

// check returns why an answer is wrong, or "".
func (c *checker) check(poolIdx int, q []byte, minScore int, a answer) string {
	if !a.ordered() {
		return "hits out of score order"
	}
	if c.extra != nil {
		if why := c.extra(a); why != "" {
			return why
		}
	}
	kept := a
	if c.keep != nil {
		kept = filter(a, c.keep)
	}
	d := kept.digest()
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.seen[poolIdx]; ok && first != d {
		return "repeated query changed its answer"
	}
	c.seen[poolIdx] = d
	c.sample.offer(q, minScore, a)
	return ""
}

// frontEnd searches one query through the system under test, calling hit
// for each hit in arrival order.
type frontEnd func(q []byte, minScore int, hit func(hitKey)) (reply, error)

// reply is what a front end learned about a request besides its hits.
type reply struct {
	// stats are the query's work counters: a cache replay does no column
	// work.
	stats core.Stats
	// server is the server's own time for the request, -1 in process.
	server time.Duration
}

// sent is one request as its client saw it; first is zero without hits.
// The cpu fields read the serving process's CPU clock at the same moments.
type sent struct {
	start, first, end          time.Time
	cpuStart, cpuFirst, cpuEnd time.Duration
	ok                         bool
	hits                       int
	rep                        reply
}

// send searches pool query i through fe, counts the attempt, and checks the
// answer, counting a failure for an error or a wrong answer.
func (r *runCtx) send(i int, fe frontEnd, chk *checker) sent {
	q := r.in.queries[i]
	minScore := r.minScore(q)
	var a answer
	var s sent
	r.tally.attempt()
	s.start, s.cpuStart = time.Now(), r.cpu()
	rep, err := fe(q, minScore, func(k hitKey) {
		if a == nil {
			s.first, s.cpuFirst = time.Now(), r.cpu()
		}
		a = append(a, k)
	})
	s.end, s.cpuEnd = time.Now(), r.cpu()
	s.rep, s.hits = rep, len(a)
	if err != nil {
		r.tally.fail(err.Error())
		return s
	}
	if why := chk.check(i, q, minScore, a); why != "" {
		r.tally.fail(why)
		return s
	}
	s.ok = true
	return s
}

// closedLoop sends one request at a time for d, drawing pool indexes from
// next.  With a tracer, every other request is wrapped in a span named span
// and the others are recorded in e.untraced.
func (r *runCtx) closedLoop(d time.Duration, next func() int, fe frontEnd, chk *checker, tr *tracer, span string) *e2e {
	e := &e2e{}
	if tr != nil {
		e.untraced = &e2e{}
	}
	start, cpu0 := time.Now(), r.cpu()
	for req := 0; time.Since(start) < d; req++ {
		s := r.send(next(), fe, chk)
		rec := e
		if tr != nil && req%2 == 1 {
			rec = e.untraced
		} else if tr != nil {
			tr.add(span, req, -1, s.start, s.end)
			s.end, s.cpuEnd = time.Now(), r.cpu() // the traced request pays for its span
		}
		rec.recordSent(s)
	}
	e.elapsed, e.cpuElapsed = time.Since(start), r.cpu()-cpu0
	return e
}

// minScore is the score threshold of E = 20000 for q over the corpus the
// run generated (inserted sequences do not move it).
func (r *runCtx) minScore(q []byte) int {
	return r.ka.MinScore(eValue, len(q), r.in.db.TotalResidues())
}

func (r *runCtx) coreOpts(q []byte) core.Options {
	return core.Options{Scheme: benchScheme(), MinScore: r.minScore(q)}
}

// engineFront searches through the public warm engine.
func engineFront(eng *oasis.Engine) frontEnd {
	return func(q []byte, minScore int, hit func(hitKey)) (reply, error) {
		opts := oasis.SearchOptions{Scheme: benchScheme(), MinScore: minScore}
		var st oasis.SearchStats
		opts.Stats = &st
		err := eng.Search(context.Background(), q, opts, func(h oasis.Hit) bool {
			hit(hitKey{h.SeqID, h.Score})
			return true
		})
		if err == nil && st.Degraded {
			err = fmt.Errorf("degraded answer")
		}
		return reply{stats: st, server: -1}, err
	}
}

// coreMetrics reports the core layer from a pass of concurrent per-shard
// core.Search calls.
func (r *runCtx) coreMetrics(p [][]call) {
	var dur, first dist
	var st core.Stats
	var busy time.Duration
	hits := 0
	for _, q := range p {
		for _, c := range q {
			dur.add(c.dur())
			busy += c.dur()
			if c.firstHit >= 0 {
				first.add(c.firstHit)
			}
			st.Add(c.stats)
			hits += c.hits
		}
	}
	nq := float64(len(p))
	r.set("core.search_p50_ms", dur.p50())
	r.set("core.first_hit_p50_ms", first.p50())
	r.set("core.columns_per_query", float64(st.ColumnsExpanded)/nq)
	r.set("core.cells_per_column", ratio(float64(st.CellsComputed), float64(st.ColumnsExpanded)))
	r.set("core.ns_per_column", ratio(float64(busy), float64(st.ColumnsExpanded)))
	// Unviable nodes are discarded before they are pushed, so the base is
	// every node the search generated.
	r.set("core.viable_ratio", ratio(float64(st.NodesPushed), float64(st.NodesPushed+st.NodesUnviable)))
	r.set("core.hits_per_query", float64(hits)/nq)
}

// passErr returns the first error of a pass.
func passErr(p [][]call) error {
	for _, q := range p {
		for _, c := range q {
			if c.err != nil {
				return c.err
			}
		}
	}
	return nil
}

func columns(p [][]call) (n int64) {
	for _, q := range p {
		for _, c := range q {
			n += c.stats.ColumnsExpanded
		}
	}
	return n
}

// firstHitGap is, per query, the parent's first hit minus the earliest
// first hit among its children.
func firstHitGap(parent, child [][]call) dist {
	var d dist
	for i := range parent {
		best := time.Duration(-1)
		for _, c := range child[i] {
			if c.firstHit >= 0 && (best < 0 || c.iv.start+c.firstHit < best) {
				best = c.iv.start + c.firstHit
			}
		}
		if p := parent[i][0]; p.firstHit >= 0 && best >= 0 {
			d.add(p.firstHit - best)
		}
	}
	return d
}

// cacheMetrics reports the result cache between two snapshots taken around
// the requests of window, which history preceded.
func (r *runCtx) cacheMetrics(before, after *qcache.Stats, history, window []int, replay dist) {
	if before == nil || after == nil {
		return
	}
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	r.set("qcache.hit_rate", ratio(hits, hits+misses))
	r.set("qcache.repeat_share", repeatShare(history, window))
	r.set("qcache.replay_p50_ms", replay.p50())
	r.set("qcache.oversized_frac", ratio(float64(after.Oversized-before.Oversized), misses))
	r.set("qcache.evictions_per_query", ratio(float64(after.Evictions-before.Evictions), float64(len(window))))
	r.set("qcache.flight_waits", float64(after.FlightWaits-before.FlightWaits))
}
