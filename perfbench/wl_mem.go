package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/shard"
	"repro/internal/suffixtree"
	"repro/oasis"
)

// traceSample is how many fresh queries each traced layer pass replays, and
// a traced run adds a traced phase of 1/tracedShare of --seconds.
const (
	traceSample = 40
	tracedShare = 3
)

// runMemUnique: oasis.Engine over an in-memory, 2-shard, sequence-partitioned
// index; one closed-loop client; every query distinct.
func runMemUnique(r *runCtx) error {
	in := r.in
	c, err := r.setup(func() (io.Closer, error) {
		return oasis.NewEngine(in.db, oasis.EngineOptions{Shards: 2, CacheBytes: cacheBytes})
	})
	if err != nil {
		return err
	}
	eng := c.(*oasis.Engine)
	defer eng.Close()
	fe := engineFront(eng)
	chk := newChecker()
	pos := 0
	next := func() int {
		i := in.stream[pos%len(in.stream)]
		pos++
		return i
	}
	// Warm up on queries from the end of the pool, which the measured
	// stream does not reach.
	warm := len(in.queries) - 1
	r.closedLoop(time.Second, func() int { warm--; return warm + 1 }, fe, newChecker(), nil, "")
	resetPeakRSS()
	cache0 := eng.Metrics().Cache
	e := r.closedLoop(r.seconds, next, fe, chk, nil, "")
	r.report(e)
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	r.cacheMetrics(cache0, eng.Metrics().Cache, nil, in.stream[:min(pos, len(in.stream))], e.replay)
	if r.traced {
		if err := r.traceMem(eng, fe, next, chk); err != nil {
			return err
		}
	}
	return chk.sample.verify(in.db, benchScheme(), nil, &r.tally)
}

// traceMem measures the tracing overhead and replays a fresh sample through
// each layer under the engine.
func (r *runCtx) traceMem(eng *oasis.Engine, fe frontEnd, next func() int, chk *checker) error {
	in := r.in
	r.overhead(r.closedLoop(r.seconds/tracedShare, next, fe, chk, r.tr, "engine.search"))
	// The layers under the engine, built by the benchmark from the same
	// sequence partition the engine uses.
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
	whole, err := core.BuildMemoryIndex(in.db)
	if err != nil {
		return err
	}
	sample := make([][]byte, traceSample)
	for i := range sample {
		sample[i] = in.queries[next()]
	}
	// Warm the benchmark's own shard engine as the engine's already is.
	r.tr.pass("warmup", sample, r.coreOpts, shardFn(sh))
	engP := r.tr.pass("engine.search", sample, r.coreOpts, engineFn(eng))
	scratch0 := sh.ScratchStats()
	shP := r.tr.pass("shard.search", sample, r.coreOpts, shardFn(sh))
	scratch1 := sh.ScratchStats()
	coreP := r.tr.pass("core.search", sample, r.coreOpts, coreFn(idx[0]), coreFn(idx[1]))
	oneP := r.tr.pass("core.search.unsharded", sample, r.coreOpts, coreFn(whole))
	for _, p := range [][][]call{engP, shP, coreP, oneP} {
		if err := passErr(p); err != nil {
			return err
		}
	}
	r.coreMetrics(coreP)
	r.set("engine.self_p50_ms", selfTimes(engP, shP).p50())
	r.set("shard.self_p50_ms", selfTimes(shP, coreP).p50())
	r.set("shard.columns_ratio", ratio(float64(columns(coreP)), float64(columns(oneP))))
	r.set("shard.first_hit_gap_ms", firstHitGap(shP, coreP).p50())
	// A shard search that finds no parked scratch gets one from the free
	// list, which constructs it when the list is empty too.
	built := (scratch1.Gets - scratch1.Reuses) - (scratch0.Gets - scratch0.Reuses)
	r.set("shard.scratch_reuse_ratio", 1-float64(built)/float64(len(sample)*len(idx)))
	return nil
}

// buildTrees builds one in-memory index per shard database, timing the
// suffix-tree construction on its own.
func (r *runCtx) buildTrees(dbs []*seq.Database) ([]core.Index, error) {
	var build time.Duration
	var residues int64
	idx := make([]core.Index, len(dbs))
	for s, db := range dbs {
		t0 := time.Now()
		tree, err := suffixtree.BuildUkkonen(db)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		build += time.Since(t0)
		residues += db.TotalResidues()
		if idx[s], err = core.NewMemoryIndex(tree, db); err != nil {
			return nil, err
		}
	}
	r.set("suffixtree.build_s", build.Seconds())
	r.set("suffixtree.build_ns_per_residue", float64(build.Nanoseconds())/float64(residues))
	return idx, nil
}

func coreFn(idx core.Index) searchFn {
	return func(q []byte, opts core.Options, hit func(core.Hit) bool) (core.Stats, error) {
		var st core.Stats
		opts.Stats = &st
		err := core.Search(idx, q, opts, hit)
		return st, err
	}
}

func shardFn(sh *shard.Engine) searchFn {
	return func(q []byte, opts core.Options, hit func(core.Hit) bool) (core.Stats, error) {
		var st core.Stats
		opts.Stats = &st
		err := sh.Search(q, opts, hit)
		return st, err
	}
}

func engineFn(eng *oasis.Engine) searchFn {
	return func(q []byte, opts core.Options, hit func(core.Hit) bool) (core.Stats, error) {
		var st core.Stats
		o := oasis.SearchOptions{Scheme: opts.Scheme, MinScore: opts.MinScore, Stats: &st}
		err := eng.Search(context.Background(), q, o, hit)
		return st, err
	}
}
