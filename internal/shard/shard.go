// Package shard runs one OASIS searcher per work partition on a bounded
// worker pool and merges the per-shard hit streams into one globally
// score-ordered stream.
//
// Two partition modes are supported.  PartitionBySequence (the original)
// splits the database into independently indexed shards balanced by residue
// count; each shard owns a disjoint sequence subset, so streams never
// overlap, but every shard rebuilds its own suffix tree and re-expands the
// same near-root columns.  PartitionByPrefix builds ONE shared suffix tree
// and assigns disjoint top-level subtrees to shards by suffix prefix
// (seq.PartitionByPrefix + core.ExpandFrontier): the near-root columns are
// computed exactly once per query, so total ColumnsExpanded stays flat as
// the shard count grows.  Because a sequence's suffixes spread across
// subtrees, prefix shards may report the same sequence more than once (at
// most once per shard, each at that shard's best score); the merger
// deduplicates, and the frontier-bound release rule guarantees the first
// released hit for a sequence carries its global best score.
//
// Every query runs down one path (Engine.search behind Search,
// SearchBounded and SearchExtra).  It builds a list of stream sources:
// the local sequence shards, or the prefix seed groups (static or work
// stealing), or the remote providers of a coordinator engine
// (NewEngineFromProviders), followed by any delta layers of the mutable
// context.  Each source has an initial bound, an optional "no work" test and
// a run function, and fanOutMerge runs them on the bounded worker pool and
// merges them.  The only exception is a plain search of a single-shard local
// engine, which runs inline as the single-index search.
//
// Each source reports its hits in decreasing score order and additionally
// publishes a decreasing frontier bound — the f-value of the node at the
// head of its priority queue, which caps every score it can still report
// (core.SearchStream / core.SearchSeedsStream).  The merger releases a
// buffered hit as soon as its score is strictly above every unfinished
// source's latest bound, which preserves the paper's online decreasing-score
// property end to end while keeping first-hit latency low: no source has to
// finish before the strongest hits start flowing.
//
// The merged (sequence, score, rank, E-value) stream is reproducible run to
// run: equal-score ties are released only after every shard that could still
// produce that score has moved past it, in ascending global sequence index —
// so even a top-k truncation (MaxResults) cuts the stream at the same hits
// every time.  (Tie ORDER may still differ from the single-index search,
// which breaks ties by subtree discovery; the hit multiset — same sequences,
// same scores — is identical in all configurations.)  Alignment ENDPOINTS are
// byte-stable too, except in prefix mode with work stealing enabled, where a
// sequence holding several co-optimal alignments may report a different
// member of the tie set from one run to the next (steal.go); Options.NoSteal
// restores byte-identical streams.
package shard

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/faultpoint"
	"repro/internal/score"
	"repro/internal/seq"
)

// PartitionMode selects how a sharded engine divides work among shards.
type PartitionMode int

const (
	// PartitionBySequence splits the database into independently indexed
	// shards balanced by residue count (one suffix tree per shard).
	PartitionBySequence PartitionMode = iota
	// PartitionByPrefix builds one shared suffix tree and assigns disjoint
	// top-level subtrees to shards by suffix prefix, eliminating duplicated
	// near-root column work.
	PartitionByPrefix
)

// Options configures a sharded engine.
type Options struct {
	// Shards is the number of work partitions (default 1; capped at the
	// number of sequences in PartitionBySequence mode).
	Shards int
	// Workers bounds how many shard searches run concurrently (default:
	// one worker per shard).
	Workers int
	// Partition selects the work-partitioning strategy (default
	// PartitionBySequence).
	Partition PartitionMode
	// NoSteal disables work stealing between prefix shards (see steal.go):
	// each shard then searches exactly its static LPT seed batch, as before.
	// Only meaningful in PartitionByPrefix mode with more than one shard.
	NoSteal bool
}

// The prefix partitioner must satisfy the core assigner contract.
var _ core.SubtreeAssigner = (*seq.PrefixPartition)(nil)

// Engine is a sharded OASIS search engine over one logical database.  It is
// safe for concurrent use: the indexes are immutable after construction and
// every search draws its scratch buffers from a shared bounded free list, so
// a long-running engine (internal/engine) can multiplex many queries over
// one warm Engine without per-query allocation.
//
// The engine does not care where its per-shard indexes live: NewEngine
// builds in-memory suffix trees from a database, while NewEngineFromSet
// accepts any prebuilt core.Index per shard — in particular disk-resident
// indexes (internal/diskst) each read through its own buffer pool, so shard
// parallelism also parallelises I/O.
type Engine struct {
	mode    PartitionMode
	nShards int
	workers int
	total   int64 // global residue count, for E-values
	numSeqs int
	queryAl *seq.Alphabet
	cat     core.Catalog
	// Sequence mode: one index per shard, with shard-local -> global
	// sequence index maps.  Single-shard engines of either mode also use
	// this pair (the shared index with an identity map) so the single-shard
	// fast path is common.
	indexes []core.Index
	globals [][]int
	// Prefix mode: per-shard read handles on the ONE shared logical index
	// (for disk indexes, one handle per shard so each reads through its own
	// buffer pool), the handle used for the shared near-root expansion, and
	// the suffix-prefix assignment.
	views    []core.Index
	frontier core.Index
	prefixes *seq.PrefixPartition
	// closers are resources the engine owns (disk index files); see Close.
	// disk is set by OpenDiskEngine for buffer-pool statistics.
	closers []io.Closer
	disk    *diskst.Sharded
	// scratch recycles per-shard searcher state across queries; dedups
	// recycles the merger's emitted-sequence sets (prefix mode only).
	scratch *bufferpool.FreeList[*core.Scratch]
	dedups  *bufferpool.FreeList[*dedupSet]
	// affine[s] parks the scratch shard s's worker used last, so a warm
	// engine re-serves a shard with buffers already sized to its workload
	// (band free lists, node stores) before falling back to the shared pool.
	affine []atomic.Pointer[core.Scratch]
	// nosteal disables prefix-shard work stealing; steals counts seeds
	// claimed by a non-owner shard over the engine's lifetime.
	nosteal bool
	steals  atomic.Int64
	// queued/active count, per shard, searches waiting for a worker slot and
	// searches running (see QueueDepths).
	queued []atomic.Int64
	active []atomic.Int64
	// standing lists shards that were quarantined at open time (e.g. an
	// unreadable disk shard admitted with AllowDegraded); every search over
	// the engine is degraded by them.  quarantines counts shards quarantined
	// mid-query over the engine's lifetime (metrics).
	standing    []core.ShardError
	quarantines atomic.Int64
	// mutable is a standing mutable-layer context folded into every plain
	// Search: OpenDiskEngine sets it when the directory's manifest records
	// compacted delta layers or tombstones, so a reopened index serves the
	// manifest's full live corpus, not just the base generation.  The engine
	// layer manages its own per-query ExtraSet instead (DiskOptions.BaseOnly)
	// and leaves this nil.
	mutable *ExtraSet
	// providers, when set (NewEngineFromProviders), replace the local
	// indexes entirely: each shard of the merge is one opaque boundable hit
	// stream — in particular a remote shard server's stream (internal/remote).
	// Provider shards are sequence-disjoint and always merge through
	// fanOutMerge, never the single-shard fast path.
	providers []Provider
}

// IndexSet describes prebuilt per-shard indexes for NewEngineFromSet.  It is
// how disk-resident shards (internal/diskst, opened one buffer pool per
// shard) and any other core.Index implementation plug into the sharded
// search without the engine building anything itself.
type IndexSet struct {
	// Partition declares how the indexes divide the logical database.
	Partition PartitionMode
	// Sequence mode: Indexes[s] covers a disjoint sequence subset and
	// Globals[s][i] is the global index of its i-th sequence.
	Indexes []core.Index
	Globals [][]int
	// Prefix mode: Views[s] is shard s's read handle on the one shared
	// index (entries may all be the same value, or independent handles so
	// each shard reads through its own buffer pool); Frontier is the handle
	// used for the shared near-root expansion (default Views[0]); Prefixes
	// assigns top-level subtrees to shards.
	Views    []core.Index
	Frontier core.Index
	Prefixes *seq.PrefixPartition
	// Catalog is the global sequence catalog.  Optional: it defaults to the
	// frontier's catalog in prefix mode and to the union of the shard
	// catalogs under Globals in sequence mode.
	Catalog core.Catalog
	// Closers are resources the engine takes ownership of (disk index
	// files, pools); Engine.Close releases them.
	Closers []io.Closer
	// Standing lists shards already quarantined when the set was assembled
	// (open-time failures admitted in degraded mode).  Indexes/Globals hold
	// only the survivors; every search is marked Degraded with these errors.
	Standing []core.ShardError
}

// NewEngine partitions the work for db into opts.Shards shards and builds
// the in-memory index(es): one per shard in PartitionBySequence mode, a
// single shared index in PartitionByPrefix mode.
func NewEngine(db *seq.Database, opts Options) (*Engine, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	set := IndexSet{Partition: opts.Partition, Catalog: core.NewDatabaseCatalog(db)}
	switch opts.Partition {
	case PartitionBySequence:
		part, err := seq.PartitionDatabase(db, opts.Shards)
		if err != nil {
			return nil, err
		}
		set.Indexes = make([]core.Index, part.NumShards())
		set.Globals = part.GlobalIndex
		for s, shardDB := range part.Shards {
			idx, err := core.BuildMemoryIndex(shardDB)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", s, err)
			}
			set.Indexes[s] = idx
		}
	case PartitionByPrefix:
		idx, err := core.BuildMemoryIndex(db)
		if err != nil {
			return nil, err
		}
		set.Prefixes, err = seq.PartitionByPrefix(db, opts.Shards)
		if err != nil {
			return nil, err
		}
		set.Views = make([]core.Index, set.Prefixes.NumShards())
		for s := range set.Views {
			set.Views[s] = idx
		}
		set.Frontier = idx
	default:
		return nil, fmt.Errorf("shard: unknown partition mode %d", opts.Partition)
	}
	return NewEngineFromSet(set, opts)
}

// NewEngineFromSet assembles a sharded engine over prebuilt per-shard
// indexes.  opts.Shards and opts.Partition are ignored (the set determines
// both); opts.Workers bounds shard-search concurrency as in NewEngine.
func NewEngineFromSet(set IndexSet, opts Options) (*Engine, error) {
	e := &Engine{mode: set.Partition, cat: set.Catalog, closers: set.Closers, standing: set.Standing}
	switch set.Partition {
	case PartitionBySequence:
		if len(set.Indexes) == 0 {
			return nil, fmt.Errorf("shard: sequence-mode index set has no indexes")
		}
		if len(set.Globals) != len(set.Indexes) {
			return nil, fmt.Errorf("shard: %d global maps for %d indexes", len(set.Globals), len(set.Indexes))
		}
		e.indexes = set.Indexes
		e.globals = set.Globals
		e.nShards = len(e.indexes)
		if e.cat == nil {
			cat, err := newUnionCatalog(set.Indexes, set.Globals)
			if err != nil {
				return nil, err
			}
			e.cat = cat
		}
	case PartitionByPrefix:
		if len(set.Views) == 0 {
			return nil, fmt.Errorf("shard: prefix-mode index set has no views")
		}
		if set.Prefixes == nil {
			return nil, fmt.Errorf("shard: prefix-mode index set has no prefix assignment")
		}
		if set.Prefixes.NumShards() != len(set.Views) {
			return nil, fmt.Errorf("shard: prefix assignment has %d shards, index set %d",
				set.Prefixes.NumShards(), len(set.Views))
		}
		e.views = set.Views
		e.frontier = set.Frontier
		if e.frontier == nil {
			e.frontier = set.Views[0]
		}
		e.prefixes = set.Prefixes
		e.nShards = len(e.views)
		if e.cat == nil {
			e.cat = e.frontier.Catalog()
		}
		if e.nShards == 1 {
			// Route through the common single-shard fast path.
			identity := make([]int, e.cat.NumSequences())
			for i := range identity {
				identity[i] = i
			}
			e.indexes = []core.Index{e.views[0]}
			e.globals = [][]int{identity}
		}
	default:
		return nil, fmt.Errorf("shard: unknown partition mode %d", set.Partition)
	}
	e.finish(opts)
	return e, nil
}

// finish completes construction once the shards (nShards) and the global
// catalog are in place: corpus totals, the worker bound, and the pools and
// counters sized to the shard count.
func (e *Engine) finish(opts Options) {
	e.numSeqs = e.cat.NumSequences()
	e.total = e.cat.TotalResidues()
	e.queryAl = e.cat.Alphabet()
	e.workers = opts.Workers
	if e.workers < 1 || e.workers > e.nShards {
		e.workers = e.nShards
	}
	// Hold enough idle scratches for a few concurrent queries, each using
	// one scratch per shard search (plus the frontier expansion in prefix
	// mode).
	e.scratch = bufferpool.NewFreeList(4*(e.nShards+1), core.NewScratch)
	e.dedups = bufferpool.NewFreeList(8, func() *dedupSet { return &dedupSet{} })
	e.affine = make([]atomic.Pointer[core.Scratch], e.nShards)
	e.nosteal = opts.NoSteal
	e.queued = make([]atomic.Int64, e.nShards)
	e.active = make([]atomic.Int64, e.nShards)
}

// Catalog returns the engine's global sequence catalog (hit sequence indexes
// are global, so alignment recovery and metadata lookups go through it).
func (e *Engine) Catalog() core.Catalog { return e.cat }

// Close releases resources the engine owns (disk index files handed over via
// IndexSet.Closers).  In-memory engines own nothing and Close is a no-op.
// Close does not wait for in-flight searches; callers must drain first.
func (e *Engine) Close() error {
	var first error
	for _, c := range e.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	return first
}

// ScratchStats reports how often shard searches reused pooled scratch
// buffers instead of allocating fresh ones.
func (e *Engine) ScratchStats() bufferpool.FreeListStats { return e.scratch.Stats() }

// QueueDepth is one shard's instantaneous load: searches waiting for a
// worker-pool slot and searches currently running.
type QueueDepth struct {
	Shard  int   `json:"shard"`
	Queued int64 `json:"queued"`
	Active int64 `json:"active"`
}

// QueueDepths returns a snapshot of every shard's queued and active search
// counts (capacity-planning metric; see cmd/oasis-serve's /metrics).
func (e *Engine) QueueDepths() []QueueDepth {
	out := make([]QueueDepth, e.nShards)
	for s := range out {
		out[s] = QueueDepth{Shard: s, Queued: e.queued[s].Load(), Active: e.active[s].Load()}
	}
	return out
}

// Partition returns the engine's partition mode.
func (e *Engine) Partition() PartitionMode { return e.mode }

// Standing returns the shards quarantined at open time (nil for a healthy
// engine).  Every search over an engine with standing quarantines reports
// Degraded with these errors.
func (e *Engine) Standing() []core.ShardError { return e.standing }

// Quarantines returns how many shards have been quarantined mid-query over
// the engine's lifetime (each degraded query counts its failed shards).
func (e *Engine) Quarantines() int64 { return e.quarantines.Load() }

// Steals returns how many frontier seeds have been claimed by a non-owner
// shard over the engine's lifetime (prefix-mode work stealing; 0 with
// stealing disabled or in sequence mode).
func (e *Engine) Steals() int64 { return e.steals.Load() }

// NumShards returns the number of work partitions.
func (e *Engine) NumShards() int { return e.nShards }

// Workers returns the concurrency bound for shard searches.
func (e *Engine) Workers() int { return e.workers }

// Shard exposes one shard's index (tests and diagnostics); in prefix mode
// this is the shard's read handle on the shared index.
func (e *Engine) Shard(i int) core.Index {
	if e.mode == PartitionByPrefix && len(e.views) > 0 {
		return e.views[i]
	}
	return e.indexes[i]
}

// ExtraShard is one additional index searched alongside the engine's own
// shards: the engine layer's LSM delta layers (the in-memory memtable
// snapshot and compacted delta files) plug in here.  An extra shard covers a
// sequence subset disjoint from the base shards and from every other extra;
// Globals maps its shard-local sequence indexes into the global space.
type ExtraShard struct {
	Index   core.Index
	Globals []int
}

// ExtraSet is the per-query mutable-layer context for SearchExtra: the delta
// shards to merge in, the tombstone filter, and the live corpus totals that
// replace the engine's static ones.
type ExtraSet struct {
	// Shards are the delta providers merged into the base stream.
	Shards []ExtraShard
	// Drop reports whether a global sequence index is tombstoned; matching
	// hits are filtered out of the merged stream.  nil means no deletions.
	Drop func(seqIndex int) bool
	// LiveSeqs is the live (non-tombstoned) sequence count across base and
	// deltas; it replaces the static global count in the merger's
	// all-sequences early stop.  0 disables the stop.
	LiveSeqs int
	// TotalResidues is the live residue count used for E-values (0 keeps the
	// engine's base total).
	TotalResidues int64
	// NumSeqs is the total global sequence-index space (base + deltas,
	// including tombstoned holes), sizing the deduplication set.  0 keeps the
	// engine's base count.
	NumSeqs int
}

// empty reports whether the set changes anything about a base-only search.
func (x *ExtraSet) empty() bool {
	return x == nil || (len(x.Shards) == 0 && x.Drop == nil)
}

// event is one message from a shard goroutine to the merger.
type event struct {
	shard int
	kind  eventKind
	hit   core.Hit
	bound int
	stats core.Stats
	err   error
}

type eventKind uint8

const (
	evBound eventKind = iota
	evHit
	evDone
)

// Search runs the query on every shard and streams the merged hits to
// report in globally decreasing score order, exactly as core.Search does on
// a single index.  Per-shard work counters are merged into opts.Stats via
// Stats.Add; hit ranks are assigned by the merger.  Returning false from
// report cancels every shard search.
func (e *Engine) Search(query []byte, opts core.Options, report func(core.Hit) bool) error {
	return e.search(query, opts, nil, report, nil)
}

// SearchBounded is Search with a second online output: alongside the merged
// decreasing-score hit stream, bound publishes a decreasing upper bound on
// every hit the stream can still emit (the max frontier bound among the
// engine's unfinished shards).  It is the per-shard (hit, bound) contract of
// core.SearchStream lifted to the whole engine, which is exactly what a shard
// SERVER needs to re-export its locally merged stream as one provider stream
// a coordinator can merge with strict release (internal/remote).  A nil bound
// is plain Search.  Returning false from either callback cancels the search.
//
// Unlike Search, a single-shard engine also routes through the merge
// machinery here, so equal-score ties are always released in ascending global
// sequence index — the canonical merged order a coordinator reproduces.
func (e *Engine) SearchBounded(query []byte, opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
	return e.search(query, opts, nil, hit, bound)
}

// SearchExtra is Search with the engine layer's mutable context merged in:
// delta shards stream alongside the base shards, tombstoned sequences are
// filtered, and the live totals drive E-values and the all-sequences early
// stop.  With an empty set it is exactly Search.  Extra streams always go
// through the merge machinery (even on a single-shard engine), so the merged
// stream keeps the globally decreasing-score property and deterministic tie
// release.  Provider-backed engines have no mutable layer and refuse a
// non-empty set.
func (e *Engine) SearchExtra(query []byte, opts core.Options, ext *ExtraSet, report func(core.Hit) bool) error {
	return e.search(query, opts, ext, report, nil)
}

// source is one stream the merger consumes: a local sequence shard, a prefix
// seed group, a delta layer or a remote provider.  Its position in the
// query's source list is its stream index, which ShardError.Shard, the
// shard-%d failpoint keys and the per-shard queue counters all use.
type source struct {
	// bound is the merger's initial bound for the stream: the strongest
	// score it may report before publishing a bound of its own.
	bound int
	// idle, when set, reports at launch that the source has no work left.
	idle func() bool
	// run searches with the prepared per-stream options, forwarding hits
	// (with global sequence indexes) and decreasing frontier bounds.
	run func(opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error
}

// indexSource streams a whole index (a sequence shard or a delta layer) from
// the query's root bound, mapping its hits to global sequence indexes.
func indexSource(query []byte, idx core.Index, globals []int, rootBound int) source {
	return source{bound: rootBound, run: func(opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
		return core.SearchStream(idx, query, opts, func(h core.Hit) bool {
			h.SeqIndex = globals[h.SeqIndex]
			return hit(h)
		}, bound)
	}}
}

// search is the one search path behind Search, SearchBounded and
// SearchExtra.  An empty ext means the engine's standing mutable set (a
// reopened directory's compacted deltas and tombstones), if any; bound, when
// non-nil, receives the merged stream's own decreasing upper bound.
//
// A plain search of a single-shard local engine runs inline as the
// single-index search.  Everything else builds one list of sources — the
// local sequence shards, or the prefix seed groups after one shared near-root
// expansion, or the remote providers; then any delta layers — and merges it
// through fanOutMerge.
func (e *Engine) search(query []byte, opts core.Options, ext *ExtraSet, hit func(core.Hit) bool, bound func(int) bool) error {
	if ext.empty() {
		ext = e.mutable
	}
	if ext.empty() {
		ext = nil
	} else if len(e.providers) > 0 {
		return fmt.Errorf("shard: provider-backed engines have no mutable layer")
	}
	if err := e.applyStanding(opts); err != nil {
		return err
	}
	if ext == nil && bound == nil && len(e.providers) == 0 && e.nShards == 1 {
		// One shard is the single-index search; skip the merge machinery.
		globals := e.globals[0]
		n := 0
		if opts.Scratch == nil {
			sc := e.scratch.Get()
			opts.Scratch = sc
			defer e.scratch.Put(sc)
		}
		e.active[0].Add(1)
		defer e.active[0].Add(-1)
		return core.Search(e.indexes[0], query, opts, func(h core.Hit) bool {
			h.SeqIndex = globals[h.SeqIndex]
			n++
			h.Rank = n
			return hit(h)
		})
	}
	if err := opts.Scheme.Validate(); err != nil {
		return err
	}

	rootBound := e.rootBound(query, opts)
	var srcs []source
	var dedup *dedupSet
	var shared core.Stats // work done once for every source
	switch {
	case len(e.providers) > 0:
		// Providers are sequence-disjoint: no deduplication needed.
		for _, p := range e.providers {
			srcs = append(srcs, source{bound: rootBound, run: func(opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
				return p.Stream(query, opts, hit, bound)
			}})
		}
	case e.mode == PartitionByPrefix && e.nShards > 1:
		// A sequence's suffixes spread across prefix subtrees, so the merger
		// deduplicates over the full global space (delta sequences pass
		// through it harmlessly).
		var pool *stealPool
		var err error
		if srcs, pool, shared, err = e.prefixSources(query, opts); err != nil {
			return err
		}
		if pool != nil {
			defer func() { e.steals.Add(pool.stealCount()) }()
		}
		n := e.numSeqs
		if ext != nil && ext.NumSeqs > n {
			n = ext.NumSeqs
		}
		dedup = e.dedups.Get()
		dedup.acquire(n)
		defer e.dedups.Put(dedup)
	default:
		// Sequence shards (or the shared index of a single-shard prefix
		// engine) are sequence-disjoint: no deduplication needed.
		for s, idx := range e.indexes {
			srcs = append(srcs, indexSource(query, idx, e.globals[s], rootBound))
		}
	}
	if ext != nil {
		for _, x := range ext.Shards {
			srcs = append(srcs, indexSource(query, x.Index, x.Globals, rootBound))
		}
	}

	bounds := make([]int, len(srcs))
	for s, src := range srcs {
		bounds[s] = src.bound
	}
	m := newMerger(bounds, opts, e.total, len(query), dedup, hit)
	m.onBound = bound
	if ext != nil {
		m.drop = ext.Drop
		if ext.TotalResidues > 0 {
			m.totalRes = ext.TotalResidues
		}
		m.stopAt = ext.LiveSeqs
	}
	err := e.fanOutMerge(opts, srcs, m)
	if opts.Stats != nil {
		opts.Stats.Add(shared)
	}
	return err
}

// prefixSources runs the shared near-root expansion (its columns computed
// once per query) and returns one source per prefix shard, each a seeded
// searcher over its disjoint subtrees, with the steal pool (nil when
// stealing is off) and the expansion's work counters.
func (e *Engine) prefixSources(query []byte, opts core.Options) ([]source, *stealPool, core.Stats, error) {
	frOpts := opts
	frOpts.KA = nil
	frOpts.Stats = nil
	// The frontier's seeds are independent copies, so a pooled scratch goes
	// back as soon as the expansion returns instead of being pinned for the
	// whole query.
	var pooled *core.Scratch
	if frOpts.Scratch == nil {
		pooled = e.scratch.Get()
		frOpts.Scratch = pooled
	}
	fr, err := core.ExpandFrontier(e.frontier, query, frOpts, e.prefixes)
	if pooled != nil {
		e.scratch.Put(pooled)
	}
	if err != nil {
		return nil, nil, core.Stats{}, err
	}
	bounds := fr.Bounds
	var pool *stealPool
	if !e.nosteal {
		// Work stealing: seeds are claimed from a shared pool on demand
		// (steal.go) instead of searched as static batches, so a skewed query
		// cannot strand workers on drained shards.  All bounds start at the
		// global max seed f — any shard may claim the hottest seed.
		pool = newStealPool(fr.Seeds)
		bounds = stealBounds(fr.Bounds)
	}
	srcs := make([]source, len(e.views))
	for s, view := range e.views {
		srcs[s].bound = bounds[s]
		if pool != nil {
			claim := claimFunc(pool, s)
			srcs[s].idle = pool.empty
			srcs[s].run = func(opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
				return core.SearchSeedsDynamic(view, query, opts, claim, hit, bound)
			}
			continue
		}
		seeds := fr.Seeds[s]
		srcs[s].idle = func() bool { return len(seeds) == 0 }
		srcs[s].run = func(opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
			return core.SearchSeedsStream(view, query, opts, seeds, hit, bound)
		}
	}
	return srcs, pool, fr.Stats, nil
}

// applyStanding folds open-time quarantines into the query: strict mode
// refuses to serve, otherwise the query is marked degraded by them.
func (e *Engine) applyStanding(opts core.Options) error {
	if len(e.standing) == 0 {
		return nil
	}
	if opts.StrictShards {
		return fmt.Errorf("shard: %d shard(s) quarantined at open (first: %s) and StrictShards is set",
			len(e.standing), e.standing[0].Err)
	}
	if opts.Stats != nil {
		opts.Stats.Degraded = true
		opts.Stats.ShardErrors = append(opts.Stats.ShardErrors, e.standing...)
	}
	return nil
}

// rootBound is the strongest f any search over this query can hold (max
// heuristic among unpruned query positions): the initial frontier bound for
// every stream the worker pool has not scheduled yet.
func (e *Engine) rootBound(query []byte, opts core.Options) int {
	rootBound := score.NegInf
	if e.queryAl.ValidCodes(query) && opts.Scheme.Matrix.Alphabet() == e.queryAl {
		for _, hi := range core.HeuristicVector(query, opts.Scheme.Matrix) {
			if hi >= opts.MinScore && hi > rootBound {
				rootBound = hi
			}
		}
	}
	return rootBound
}

// fanOutMerge runs every source on the bounded worker pool, each adapted
// into merger events by runShardStream, and merges their streams through m.
// A source whose idle test reports no work is completed at once without
// spending a goroutine, worker-pool slot or scratch — with more prefix
// shards than prefix groups, seedless shards would otherwise queue real work
// behind no-op searcher setup.  The per-stream counters and quarantines are
// merged into opts.Stats once every stream has unwound.
func (e *Engine) fanOutMerge(opts core.Options, srcs []source, m *merger) error {
	streamOpts := opts
	if m.dedup != nil || m.drop != nil {
		// The merger truncates the merged stream; a per-stream MaxResults
		// budget could otherwise be exhausted by hits the merger then drops
		// (duplicates, tombstones), starving the stream of hits another
		// source never got to report.
		streamOpts.MaxResults = 0
	}
	// A few events of slack per stream let sources run ahead of the merger
	// between its wake-ups instead of blocking on every send.
	events := make(chan event, 4*len(srcs)+16)
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	sem := make(chan struct{}, e.workers)
	for s, src := range srcs {
		if src.idle != nil && src.idle() {
			// Completed on the merger directly, not through events: sources
			// launched earlier may already have filled the buffer, and the
			// merger does not drain it until this loop ends.
			m.skip(s)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.releaseWorker(s, sem)
			e.acquireWorker(s, sem)
			e.runShardStream(s, streamOpts, events, &cancelled, src.run)
		}()
	}
	err := m.run(events, &cancelled)
	wg.Wait()
	if len(m.degraded) > 0 {
		e.quarantines.Add(int64(len(m.degraded)))
	}
	if opts.Stats != nil {
		for _, st := range m.shardStats {
			opts.Stats.Add(st)
		}
		if len(m.degraded) > 0 {
			opts.Stats.Degraded = true
			opts.Stats.ShardErrors = append(opts.Stats.ShardErrors, m.degraded...)
		}
	}
	return err
}

// acquireWorker/releaseWorker wrap the worker-pool semaphore with the
// queue-depth accounting.  Extra (delta) streams share the semaphore but not
// the per-shard depth counters, which size to the engine's own shards.
func (e *Engine) acquireWorker(s int, sem chan struct{}) {
	if s < len(e.queued) {
		e.queued[s].Add(1)
		defer func() {
			e.queued[s].Add(-1)
			e.active[s].Add(1)
		}()
	}
	sem <- struct{}{}
}

func (e *Engine) releaseWorker(s int, sem chan struct{}) {
	<-sem
	if s < len(e.active) {
		e.active[s].Add(-1)
	}
}

// runShardStream executes one shard's search and adapts it into merger
// events: hits and strictly decreasing frontier bounds are forwarded until
// cancellation, then completion is signalled with the shard's work counters.
func (e *Engine) runShardStream(s int, opts core.Options, events chan<- event, cancelled *atomic.Bool, run func(core.Options, func(core.Hit) bool, func(int) bool) error) {
	if err := faultpoint.Hit(faultpoint.SiteShardWorker, fmt.Sprintf("shard-%d", s)); err != nil {
		events <- event{shard: s, kind: evDone, err: fmt.Errorf("shard %d: %w", s, err)}
		return
	}
	var st core.Stats
	shardOpts := opts
	shardOpts.Stats = &st
	// E-values depend on the global database size; they are attached by the
	// merger, not the shard.
	shardOpts.KA = nil
	// Each shard search gets its own scratch (a Scratch serves one search at
	// a time); the caller's Scratch cannot be shared by the concurrent shard
	// goroutines.  The shard-affine slot is tried first — its buffers were
	// sized by this very shard's last search — then the shared pool.
	var sc *core.Scratch
	if s < len(e.affine) {
		sc = e.affine[s].Swap(nil)
	}
	if sc == nil {
		sc = e.scratch.Get()
	}
	shardOpts.Scratch = sc
	defer func() {
		if s < len(e.affine) && e.affine[s].CompareAndSwap(nil, sc) {
			return
		}
		e.scratch.Put(sc)
	}()
	lastBound := int(^uint(0) >> 1) // MaxInt
	err := run(shardOpts,
		func(h core.Hit) bool {
			if cancelled.Load() {
				return false
			}
			h.Rank = 0
			events <- event{shard: s, kind: evHit, hit: h}
			return true
		},
		func(bound int) bool {
			if cancelled.Load() {
				return false
			}
			if bound < lastBound {
				lastBound = bound
				events <- event{shard: s, kind: evBound, bound: bound}
			}
			return true
		})
	events <- event{shard: s, kind: evDone, stats: st, err: err}
}

// SearchAll runs Search and collects every hit.
func (e *Engine) SearchAll(query []byte, opts core.Options) ([]core.Hit, error) {
	var hits []core.Hit
	err := e.Search(query, opts, func(h core.Hit) bool {
		hits = append(hits, h)
		return true
	})
	return hits, err
}
