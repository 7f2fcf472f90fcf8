package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/seq"
	"repro/internal/shard"
	"repro/oasis"
)

// write-mix's writer: one write falls due each time the reader completes
// readsPerWrite requests.  Counting the rate in reader requests rather than
// seconds gives every run the same mix of reads and writes however fast the
// host runs it; a writer that cannot keep up still falls behind its due
// times.  The writer compacts after the first write at or past each
// multiple of compactInterval that falls inside the phase, so that every run
// makes the same number of compactions: each retires a base index that the
// engine keeps until Close, and peak memory grows with their count.  The reader's
// hot set rolls
// through the pool: hotWindow queries, each asked hotRepeats times, so the
// cache would answer three requests in four if nothing wrote, and the
// misses still cover many distinct queries.  The run never reaches the last
// traceSample queries of the pool, the traced run's fresh sample.
const (
	readsPerWrite   = 25
	compactInterval = 4 * time.Second
	hotWindow       = 2
	hotRepeats      = 5
	writePool       = 2000
	probeLen        = 24
)

// writeLog is what the writer did, shared with the reader's checks.
type writeLog struct {
	mu                          sync.Mutex
	inserted                    map[string]time.Time // insert called
	deleted                     map[string]time.Time // delete returned
	compacts                    []interval           // since the phase epoch
	insertLat, callLat, visible dist
	compactS                    dist
	memtable                    dist
	late                        dist
	backlog                     int
	// probes counts the untraced writer's probe searches, each a result
	// cache miss the reader did not cause.
	probes int64
}

// runWriteMix: oasis.Engine in memory; one closed-loop reader replays a
// small rolling hot set while one open-loop writer inserts held-out
// sequences, deletes some earlier inserts and compacts periodically.
func runWriteMix(r *runCtx) error {
	in := r.in
	c, err := r.setup(func() (io.Closer, error) {
		return oasis.NewEngine(in.db, oasis.EngineOptions{Shards: 2, CacheBytes: cacheBytes})
	})
	if err != nil {
		return err
	}
	eng := c.(*oasis.Engine)
	defer eng.Close()
	base := make(map[string]bool, in.db.NumSequences())
	for i := 0; i < in.db.NumSequences(); i++ {
		base[in.db.Sequence(i).ID] = true
	}
	wl := &writeLog{inserted: map[string]time.Time{}, deleted: map[string]time.Time{}}
	chk := newChecker()
	chk.keep = func(k hitKey) bool { return base[k.id] }
	fe := engineFront(eng)
	var spans []interval // reader requests since the phase epoch
	var epoch time.Time
	var reads *readCount // the phase's reader requests
	reader := func(q []byte, minScore int, hit func(hitKey)) (reply, error) {
		start := time.Now()
		var got answer
		rep, err := fe(q, minScore, func(k hitKey) {
			got = append(got, k)
			hit(k)
		})
		end := time.Now()
		reads.done(end)
		spans = append(spans, interval{start.Sub(epoch), end.Sub(epoch)})
		if err == nil {
			err = wl.checkLive(got, start, end, base)
		}
		return rep, err
	}
	pos := 0
	next := func() int {
		i := in.stream[pos%len(in.stream)]
		pos++
		return i
	}
	r.closedLoop(time.Second, next, fe, newChecker(), nil, "")
	warmed := pos
	resetPeakRSS()
	cache0 := eng.Metrics().Cache
	epoch, reads = time.Now(), newReadCount()
	nw := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nw = r.writer(eng, wl, 0, reads, epoch, r.seconds, nil)
	}()
	e := r.closedLoop(r.seconds, next, reader, chk, nil, "")
	reads.stop()
	wg.Wait()
	r.report(e)
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	// The writer's probes go through the same cache; take them out so the
	// cache metrics describe the reader, whose stream repeat_share counts.
	cache1 := *eng.Metrics().Cache
	cache1.Misses -= wl.probes
	r.cacheMetrics(cache0, &cache1, in.stream[:warmed], in.stream[warmed:min(pos, len(in.stream))], e.replay)
	var during dist
	for _, s := range spans {
		for _, c := range wl.compacts {
			if s.start < c.end && c.start < s.end {
				during.add(s.end - s.start)
				break
			}
		}
	}
	r.set("writes.insert_p50_ms", wl.insertLat.p50())
	r.set("writes.insert_p99_ms", val(wl.insertLat.tail(99)))
	r.set("writes.visible_p99_ms", val(wl.visible.tail(99)))
	r.set("engine.insert_call_p99_ms", val(wl.callLat.tail(99)))
	r.set("engine.compact_s", wl.compactS.p50()/1000)
	r.set("engine.memtable_seqs_mean", wl.memtable.mean())
	r.set("engine.search_during_compact_p99_ms", val(during.tail(99)))
	r.set("loadgen.late_p99_ms", val(wl.late.tail(99)))
	r.set("loadgen.backlog_max", float64(wl.backlog))
	fmt.Printf("writes: %d (%d inserts timed, %d compactions); reads during compaction: %d\n",
		nw, len(wl.insertLat), len(wl.compactS), len(during))
	if r.traced {
		epoch, reads = time.Now(), newReadCount()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.writer(eng, wl, nw, reads, epoch, r.seconds/tracedShare, r.tr)
		}()
		traced := r.closedLoop(r.seconds/tracedShare, next, reader, chk, r.tr, "engine.search")
		reads.stop()
		wg.Wait()
		r.overhead(traced)
		if err := r.traceWriteMix(eng); err != nil {
			return err
		}
	}
	return chk.sample.verify(in.db, benchScheme(), chk.keep, &r.tally)
}

// checkLive fails an answer holding an inserted sequence that was not live
// at any time during the request.
func (wl *writeLog) checkLive(a answer, start, end time.Time, base map[string]bool) error {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	for _, k := range a {
		if base[k.id] {
			continue
		}
		ins, ok := wl.inserted[k.id]
		del, gone := wl.deleted[k.id]
		if !ok || gone && del.Before(start) || ins.After(end) {
			return fmt.Errorf("hit on %s, which was not live during the request", k.id)
		}
	}
	return nil
}

// readCount counts the reader's completed requests of one phase and
// records when each write fell due.
type readCount struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	due     []time.Time // due[i]: the reader completed (i+1)*readsPerWrite requests
	stopped bool
}

func newReadCount() *readCount {
	c := &readCount{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// done counts one reader request that ended at t.
func (c *readCount) done(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if c.n%readsPerWrite == 0 {
		c.due = append(c.due, t)
		c.cond.Broadcast()
	}
}

// stop ends the phase: a writer waiting for a write that is not yet due
// stops waiting.
func (c *readCount) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	c.cond.Broadcast()
}

// wait blocks until write i of the phase is due and returns its due time
// and how many writes are due but not yet started, this one included; ok is
// false when the phase ended first.
func (c *readCount) wait(i int) (due time.Time, backlog int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.due) <= i && !c.stopped {
		c.cond.Wait()
	}
	if len(c.due) <= i {
		return time.Time{}, 0, false
	}
	return c.due[i], len(c.due) - i, true
}

// writer applies write ops from op first on as they fall due, until the
// phase of length d ends, returning the next op.  The reader's last request
// may end after d, so a compaction due at d itself would happen in some
// runs and not in others.
func (r *runCtx) writer(eng *oasis.Engine, wl *writeLog, first int, reads *readCount, epoch time.Time, d time.Duration, tr *tracer) int {
	in := r.in
	nextCompact := compactInterval
	i := 0
	for ; first+i < len(in.writes); i++ {
		due, backlog, ok := reads.wait(i)
		if !ok {
			break
		}
		if tr == nil {
			wl.late.add(time.Since(due))
			wl.backlog = max(wl.backlog, backlog)
		}
		op := in.writes[first+i]
		r.tally.attempt()
		if err := r.applyWrite(eng, wl, first+i, op, due, tr); err != nil {
			r.tally.fail(err.Error())
			continue
		}
		if t0 := time.Now(); t0.Sub(epoch) >= nextCompact && nextCompact < d {
			nextCompact += compactInterval
			if _, err := eng.Compact(); err != nil {
				r.tally.fail("compact: " + err.Error())
				continue
			}
			end := time.Now()
			tr.add("engine.compact", first+i, -1, t0, end)
			wl.mu.Lock()
			wl.compactS.add(end.Sub(t0))
			wl.compacts = append(wl.compacts, interval{t0.Sub(epoch), end.Sub(epoch)})
			wl.mu.Unlock()
		}
	}
	if first+i == len(in.writes) {
		r.tally.fail("write-mix ran out of write ops; raise sizes.writes")
	}
	return first + i
}

// applyWrite performs one insert or delete and probes that the reader-visible
// index reflects it.
func (r *runCtx) applyWrite(eng *oasis.Engine, wl *writeLog, i int, op writeOp, due time.Time, tr *tracer) error {
	in := r.in
	target := op.arg
	if !op.insert {
		target = in.writes[op.arg].arg
	}
	id := insertID(i)
	if !op.insert {
		id = insertID(op.arg)
	}
	residues := in.heldOut[target].Residues
	t0 := time.Now()
	var err error
	if op.insert {
		wl.mu.Lock()
		wl.inserted[id] = t0
		wl.mu.Unlock()
		_, err = eng.Insert(id, residues)
	} else {
		_, err = eng.Delete(id)
	}
	end := time.Now()
	if !op.insert {
		// A request that started after Delete returned must not see id.
		wl.mu.Lock()
		wl.deleted[id] = end
		wl.mu.Unlock()
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", id, err)
	}
	name := "engine.delete"
	if op.insert {
		name = "engine.insert"
		wl.mu.Lock()
		if tr == nil {
			wl.callLat.add(end.Sub(t0))
			wl.insertLat.add(end.Sub(due))
			wl.memtable = append(wl.memtable, float64(eng.Metrics().Mutable.MemtableSequences))
		}
		wl.mu.Unlock()
	}
	tr.add(name, i, -1, t0, end)
	// Probe with a prefix of the written sequence: an insert must be found,
	// a delete must not.
	probe := residues[:min(probeLen, len(residues))]
	found := false
	opts := oasis.SearchOptions{Scheme: benchScheme(), MinScore: selfScore(probe) * 3 / 4}
	if err := eng.Search(context.Background(), probe, opts, func(h oasis.Hit) bool {
		if h.SeqID == id {
			found = true
			return false
		}
		return true
	}); err != nil {
		return fmt.Errorf("probe %s: %w", id, err)
	}
	if tr == nil {
		wl.mu.Lock()
		wl.probes++
		wl.mu.Unlock()
	}
	if found != op.insert {
		return fmt.Errorf("probe after writing %s: found=%t", id, found)
	}
	if op.insert && tr == nil {
		wl.mu.Lock()
		wl.visible.add(time.Since(due))
		wl.mu.Unlock()
	}
	return nil
}

func insertID(op int) string { return fmt.Sprintf("INS|%05d", op) }

// selfScore is a sequence's score aligned against itself.
func selfScore(q []byte) int {
	m := benchScheme().Matrix
	s := 0
	for _, c := range q {
		s += m.Score(c, c)
	}
	return s
}

// traceWriteMix replays the fresh part of the query pool through the
// engine's miss path and the shard layer under it.
func (r *runCtx) traceWriteMix(eng *oasis.Engine) error {
	in := r.in
	part, err := seq.PartitionDatabase(in.db, 2)
	if err != nil {
		return err
	}
	idx, err := r.buildTrees(part.Shards)
	if err != nil {
		return err
	}
	sh, err := shard.NewEngineFromSet(shard.IndexSet{Partition: shard.PartitionBySequence, Indexes: idx, Globals: part.GlobalIndex}, shard.Options{})
	if err != nil {
		return err
	}
	sample := slices.Clone(in.queries[len(in.queries)-traceSample:])
	r.tr.pass("warmup", sample, r.coreOpts, shardFn(sh))
	engP := r.tr.pass("engine.search", sample, r.coreOpts, engineFn(eng))
	shP := r.tr.pass("shard.search", sample, r.coreOpts, shardFn(sh))
	coreP := r.tr.pass("core.search", sample, r.coreOpts, coreFn(idx[0]), coreFn(idx[1]))
	for _, p := range [][][]call{engP, shP, coreP} {
		if err := passErr(p); err != nil {
			return err
		}
	}
	r.coreMetrics(coreP)
	r.set("engine.self_p50_ms", selfTimes(engP, shP).p50())
	r.set("shard.self_p50_ms", selfTimes(shP, coreP).p50())
	r.set("shard.first_hit_gap_ms", firstHitGap(shP, coreP).p50())
	return nil
}
