package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/seq"
	"repro/internal/shard"
	"repro/oasis"
)

// disk-serve-zipf's load.  The user-visible metrics come from one
// closed-loop client; the traced run adds the open-loop ladder over
// diskConns connections, where a rung passes when its tail latency is within
// latencyLimit, nothing failed, and the backlog cleared.  Requests ask for
// the diskTopK best sequences, a result page.
//
// The result cache holds diskCacheMB, about 430 such pages, so that it
// evicts: an LRU under Zipf popularity then hits a steady share of requests
// (about 0.3) once warmRequests have filled it.  A cache that never evicts
// hits more the more requests a run completes, and a run on a slower host
// would measure another mix of cache replays and disk searches.
const (
	diskTopK     = 20
	diskPoolMB   = 1
	diskCacheMB  = 1
	diskConns    = 2
	latencyLimit = 250 * time.Millisecond
	warmRequests = 300
)

var ladderRates = []float64{30, 60, 90, 120}

// Shares of --seconds for the main phase of a traced run (which adds the
// ladder and a traced phase) and for each ladder rung.
const (
	tracedMainShare = 0.5
	rungShare       = 0.1
	rungGrace       = 500 * time.Millisecond
)

// rung is one ladder rung's record.
type rung struct {
	lat, late  dist
	backlogMax int
	unsent     int
	failed     int
}

type diskRun struct {
	r      *runCtx
	srv    *serveProc
	client *http.Client
	net    *netCounters
	chk    *checker
	pos    int // next stream position
}

// next draws the next pool query of the stream.
func (d *diskRun) next() int {
	i := d.r.in.stream[d.pos%len(d.r.in.stream)]
	d.pos++
	return i
}

// search is the front end: one /search request for the top diskTopK hits.
func (d *diskRun) search(q []byte, minScore int, hit func(hitKey)) (reply, error) {
	done, err := searchHTTP(d.client, d.srv.base, seq.Protein.Decode(q), minScore, diskTopK, hit)
	if err != nil {
		return reply{server: -1}, err
	}
	return reply{stats: done.Stats, server: time.Duration(done.ElapsedMs * float64(time.Millisecond))}, nil
}

// closed runs one closed-loop client for dur.
func (d *diskRun) closed(dur time.Duration, tr *tracer) *e2e {
	return d.r.closedLoop(dur, d.next, d.search, d.chk, tr, "serve.search")
}

// rung offers the stream from d.pos as Poisson arrivals at rate for dur.
func (d *diskRun) rung(rate float64, dur time.Duration) *rung {
	in, base := d.r.in, d.pos
	due := in.schedule(base, rate, dur)
	outs, backlog, unsent := openLoop(due, diskConns, dur+rungGrace, func(i int) (time.Time, bool) {
		s := d.r.send(in.stream[(base+i)%len(in.stream)], d.search, d.chk)
		return s.first, s.ok
	})
	d.pos += len(due)
	ph := &rung{backlogMax: backlog, unsent: unsent}
	for _, o := range outs {
		if o.ok {
			ph.lat.add(o.latency())
		} else {
			ph.lat = append(ph.lat, failedLatencyMS)
			ph.failed++
		}
		ph.late.add(o.late())
	}
	return ph
}

// passes reports whether a ladder rung met the latency limit with nothing
// failed and no backlog left over.
func (ph *rung) passes() bool {
	tail, _ := ph.lat.tail(99)
	return ph.failed == 0 && ph.unsent == 0 && tail <= ms(latencyLimit)
}

// runDiskServe: oasis-serve over a prebuilt 2-shard disk index whose buffer
// pools are smaller than the index, Zipf query popularity, one closed-loop
// keep-alive connection; traced runs add the open-loop ladder.
func runDiskServe(r *runCtx) error {
	in := r.in
	n := 0
	c, err := r.setup(func() (io.Closer, error) {
		n++
		dir := filepath.Join(r.workDir, fmt.Sprintf("disk-index-%d", n))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if _, _, err := oasis.BuildShardedDiskIndex(dir, in.db, oasis.ShardedIndexBuildOptions{Shards: 2}); err != nil {
			return nil, err
		}
		return startServe(filepath.Join(r.binDir, "oasis-serve"), filepath.Join(r.workDir, "oasis-serve.log"), dir,
			"-index-dir", dir, "-pool", fmt.Sprint(diskPoolMB), "-cache", fmt.Sprint(diskCacheMB))
	})
	if err != nil {
		return err
	}
	srv := c.(*serveProc)
	defer srv.Close()
	r.cpu = srv.cpu
	size, err := dirBytes(srv.dir)
	if err != nil {
		return err
	}
	r.set("diskst.index_bytes_per_residue", float64(size)/float64(in.db.TotalResidues()))

	d := &diskRun{r: r, srv: srv, net: &netCounters{}, chk: newChecker()}
	d.chk.sample.topK = diskTopK
	d.client = countingClient(d.net, diskConns)
	defer d.client.CloseIdleConnections()
	for i := 0; i < warmRequests; i++ {
		r.send(d.next(), d.search, d.chk)
	}
	m0, err := srv.metrics()
	if err != nil {
		return err
	}
	startPos := d.pos
	mainDur := r.seconds
	if r.traced {
		mainDur = time.Duration(tracedMainShare * float64(r.seconds))
	}
	bytes0 := d.net.read.Load()
	main := d.closed(mainDur, nil)
	bytes := d.net.read.Load() - bytes0
	m1, err := srv.metrics()
	if err != nil {
		return err
	}
	r.report(main)
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	r.set("serve.self_p50_ms", main.self.p50())
	r.set("serve.wire_bytes_per_hit", ratio(float64(bytes), float64(main.hits)))
	r.set("serve.admission_rejects", float64(m1.Admission.Rejected-m0.Admission.Rejected))
	r.cacheMetrics(m0.Engine.Cache, m1.Engine.Cache, in.stream[:startPos], in.stream[startPos:d.pos], main.replay)
	p0, p1 := poolTotals(m0.Engine.Pools), poolTotals(m1.Engine.Pools)
	req, hits := float64(p1.Requests-p0.Requests), float64(p1.Hits-p0.Hits)
	r.set("bufferpool.requests_per_column", ratio(req, float64(main.columns)))
	r.set("bufferpool.hit_ratio", ratio(hits, req))
	r.set("bufferpool.misses_per_query", ratio(req-hits, float64(main.indexRuns)))
	if r.traced {
		// The open-loop ladder: the highest offered rate whose tail stays
		// within the limit with no backlog left over.
		maxRate := 0.0
		for i, rate := range ladderRates {
			ph := d.rung(rate, time.Duration(rungShare*float64(r.seconds)))
			tail, p := ph.lat.tail(99)
			fmt.Printf("ladder: %.0f q/s offered, p%g %.1f ms, unsent %d, failed %d\n", rate, p, tail, ph.unsent, ph.failed)
			if i == 0 {
				r.set("loadgen.late_p99_ms", val(ph.late.tail(99)))
				r.set("loadgen.backlog_max", float64(ph.backlogMax))
			}
			if !ph.passes() {
				break
			}
			maxRate = rate
		}
		r.set("loadgen.max_rate_qps", maxRate)
		r.overhead(d.closed(r.seconds/tracedShare, r.tr))
		if err := r.traceDisk(srv.dir); err != nil {
			return err
		}
	}
	if got := d.net.maxOpen.Load(); got > diskConns {
		r.tally.fail(fmt.Sprintf("%d connections open at once, limit %d", got, diskConns))
	}
	return d.chk.sample.verify(in.db, benchScheme(), nil, &r.tally)
}

// traceDisk opens the served index directory in-process and replays a
// sample through the shard engine, the disk shards' core.Search and the same
// shards built in memory.  The buffer-pool metrics come from the server's
// own pools instead, which see the real working set.
func (r *runCtx) traceDisk(dir string) error {
	in := r.in
	t0 := time.Now()
	sh, err := shard.OpenDiskEngine(dir, shard.DiskOptions{PoolBytesPerShard: diskPoolMB << 20})
	if err != nil {
		return err
	}
	defer sh.Close()
	r.set("diskst.open_ms", ms(time.Since(t0)))
	part, err := seq.PartitionDatabase(in.db, 2)
	if err != nil {
		return err
	}
	mem, err := r.buildTrees(part.Shards)
	if err != nil {
		return err
	}
	disk := sh.Disk()
	sample := make([][]byte, traceSample)
	for i := range sample {
		sample[i] = in.queries[i]
	}
	// Warm the pools as the server's are warm.
	opts := func(q []byte) core.Options {
		o := r.coreOpts(q)
		o.MaxResults = diskTopK
		return o
	}
	r.tr.pass("warmup", sample, opts, shardFn(sh))
	shP := r.tr.pass("shard.search", sample, opts, shardFn(sh))
	diskP := r.tr.pass("core.search.disk", sample, opts, coreFn(disk.Indexes[0]), coreFn(disk.Indexes[1]))
	memP := r.tr.pass("core.search.memory", sample, opts, coreFn(mem[0]), coreFn(mem[1]))
	for _, p := range [][][]call{shP, diskP, memP} {
		if err := passErr(p); err != nil {
			return err
		}
	}
	var self dist
	for i := range diskP {
		for s := range diskP[i] {
			self.add(diskP[i][s].dur() - memP[i][s].dur())
		}
	}
	r.coreMetrics(diskP)
	r.set("diskst.self_p50_ms", self.p50())
	r.set("shard.self_p50_ms", selfTimes(shP, diskP).p50())
	r.set("shard.first_hit_gap_ms", firstHitGap(shP, diskP).p50())
	return nil
}

func poolTotals(ps []diskst.PoolStats) (t diskst.PoolStats) {
	for _, p := range ps {
		t.Requests += p.Requests
		t.Hits += p.Hits
	}
	return t
}
