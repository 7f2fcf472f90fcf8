package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seq"
)

// searchPathCorpus is one random corpus split into a base (the engines'
// own shards), a delta layer appended after it, and a tombstone subset,
// with the live corpus an exhaustive single index is built over.
type searchPathCorpus struct {
	base   *seq.Database
	ext    *ExtraSet
	baseOn *core.MemoryIndex // single index over the base corpus
	baseG  []int             // baseOn's sequence index -> global index
	live   *core.MemoryIndex // single index over base + delta - tombstones
	liveG  []int             // live's sequence index -> global index
}

func newSearchPathCorpus(t *testing.T, rng *rand.Rand) *searchPathCorpus {
	t.Helper()
	all := randomShardDB(t, rng, seq.Protein, 14+rng.Intn(6), 60).Sequences()
	nBase := len(all) - 3
	c := &searchPathCorpus{base: seq.MustDatabase(seq.Protein, all[:nBase])}
	var err error
	if c.baseOn, err = core.BuildMemoryIndex(c.base); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < nBase; g++ {
		c.baseG = append(c.baseG, g)
	}
	delta, err := core.BuildMemoryIndex(seq.MustDatabase(seq.Protein, all[nBase:]))
	if err != nil {
		t.Fatal(err)
	}
	deltaG := []int{nBase, nBase + 1, nBase + 2}
	// A third of the base and one delta sequence are deleted: enough that a
	// per-shard top-k budget spent on deleted hits would show.
	tomb := map[int]bool{nBase + 1: true}
	for g := 0; g < nBase; g += 3 {
		tomb[g] = true
	}
	var liveSeqs []seq.Sequence
	var liveRes int64
	for g, s := range all {
		if !tomb[g] {
			liveSeqs = append(liveSeqs, s)
			c.liveG = append(c.liveG, g)
			liveRes += int64(len(s.Residues))
		}
	}
	if c.live, err = core.BuildMemoryIndex(seq.MustDatabase(seq.Protein, liveSeqs)); err != nil {
		t.Fatal(err)
	}
	c.ext = &ExtraSet{
		Shards:        []ExtraShard{{Index: delta, Globals: deltaG}},
		Drop:          func(i int) bool { return tomb[i] },
		LiveSeqs:      len(liveSeqs),
		TotalResidues: liveRes,
		NumSeqs:       len(all),
	}
	return c
}

// engines builds every engine shape over the base corpus: sequence mode at
// 1 and 3 shards, prefix mode at 3 shards with stealing on and off, and a
// provider-backed engine over two in-process slices.
func (c *searchPathCorpus) engines(t *testing.T) map[string]*Engine {
	t.Helper()
	out := map[string]*Engine{}
	for name, o := range map[string]Options{
		"sequence/1":       {Shards: 1},
		"sequence/3":       {Shards: 3},
		"prefix/3":         {Shards: 3, Partition: PartitionByPrefix},
		"prefix/3/nosteal": {Shards: 3, Partition: PartitionByPrefix, NoSteal: true},
	} {
		e, err := NewEngine(c.base, o)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = e
	}
	n := c.base.NumSequences()
	var providers []Provider
	for _, r := range [][2]int{{0, n / 2}, {n / 2, n}} {
		slice, err := NewEngine(seq.MustDatabase(seq.Protein, c.base.Sequences()[r[0]:r[1]]), Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		providers = append(providers, &engineProvider{eng: slice, offset: r[0]})
	}
	pe, err := NewEngineFromProviders(ProviderSet{Providers: providers, Catalog: core.NewDatabaseCatalog(c.base)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out["provider"] = pe
	return out
}

// streamRun records one search: the hits and, for SearchBounded, checks
// that bounds never increase and no hit outscores the last bound before it.
type streamRun struct {
	t         *testing.T
	label     string
	hits      []core.Hit
	lastBound int
}

func newStreamRun(t *testing.T, label string) *streamRun {
	return &streamRun{t: t, label: label, lastBound: int(^uint(0) >> 1)}
}

func (r *streamRun) hit(h core.Hit) bool {
	if h.Score > r.lastBound {
		r.t.Fatalf("%s: hit %+v scores above the last published bound %d", r.label, h, r.lastBound)
	}
	r.hits = append(r.hits, h)
	return true
}

func (r *streamRun) bound(b int) bool {
	if b > r.lastBound {
		r.t.Fatalf("%s: bound rose from %d to %d", r.label, r.lastBound, b)
	}
	r.lastBound = b
	return true
}

// oracle is the exhaustive single-index answer as (global sequence, score)
// pairs in decreasing score order (ties by global index).
type scoredSeq struct{ seq, score int }

func oracle(t *testing.T, idx core.Index, globals []int, query []byte, opts core.Options) []scoredSeq {
	t.Helper()
	opts.MaxResults = 0
	hits, err := core.SearchAll(idx, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]scoredSeq, len(hits))
	for i, h := range hits {
		out[i] = scoredSeq{globals[h.SeqIndex], h.Score}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// checkAgainstOracle: the stream is rank-ordered and non-increasing; with no
// top-k cut its (sequence, score) multiset is the oracle's, and with a cut of
// k its scores are the oracle's first k and each hit is an oracle pair.
func checkAgainstOracle(t *testing.T, label string, got []core.Hit, want []scoredSeq, top int) {
	t.Helper()
	checkOrderAndRanks(t, got, label)
	n := len(want)
	if top > 0 && top < n {
		n = top
	}
	if len(got) != n {
		t.Fatalf("%s: %d hits, want %d", label, len(got), n)
	}
	inOracle := map[scoredSeq]bool{}
	for _, w := range want {
		inOracle[w] = true
	}
	seen := map[int]bool{}
	for i, h := range got {
		if h.Score != want[i].score {
			t.Fatalf("%s: hit %d scores %d, oracle %d", label, i, h.Score, want[i].score)
		}
		if !inOracle[scoredSeq{h.SeqIndex, h.Score}] {
			t.Fatalf("%s: hit %+v is not an oracle (sequence, score) pair", label, h)
		}
		if seen[h.SeqIndex] {
			t.Fatalf("%s: sequence %d reported twice", label, h.SeqIndex)
		}
		seen[h.SeqIndex] = true
	}
}

// TestSearchPathMatrix locks down every way into the engine's search:
// {sequence 1 and 3 shards, prefix 3 shards with stealing on and off,
// provider-backed} x {no extra layers, a delta layer plus tombstones} x
// {Search/SearchExtra, SearchBounded} x {all hits, top 3}.  Each stream must
// be non-increasing in score, never outscore a bound published before it,
// and match an exhaustive single index over the live corpus.  Extra layers
// reach SearchBounded the way a reopened disk directory supplies them, as the
// engine's standing mutable set.  Provider-backed engines refuse extras.
func TestSearchPathMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	oracleHits := 0
	for trial := 0; trial < 3; trial++ {
		c := newSearchPathCorpus(t, rng)
		engines := c.engines(t)
		for q := 0; q < 2; q++ {
			src := c.base.Sequence(rng.Intn(c.base.NumSequences())).Residues
			n := 6 + rng.Intn(8)
			if n > len(src) {
				n = len(src)
			}
			off := rng.Intn(len(src) - n + 1)
			query := src[off : off+n]
			for _, top := range []int{0, 3} {
				opts := core.Options{Scheme: scheme, MinScore: 12, MaxResults: top}
				plain := oracle(t, c.baseOn, c.baseG, query, opts)
				live := oracle(t, c.live, c.liveG, query, opts)
				oracleHits += len(plain) + len(live)
				for name, e := range engines {
					label := fmt.Sprintf("trial %d query %d top %d %s", trial, q, top, name)

					r := newStreamRun(t, label+" Search")
					if err := e.Search(query, opts, r.hit); err != nil {
						t.Fatalf("%s: %v", r.label, err)
					}
					checkAgainstOracle(t, r.label, r.hits, plain, top)

					r = newStreamRun(t, label+" SearchBounded")
					if err := e.SearchBounded(query, opts, r.hit, r.bound); err != nil {
						t.Fatalf("%s: %v", r.label, err)
					}
					checkAgainstOracle(t, r.label, r.hits, plain, top)

					if name == "provider" {
						if err := e.SearchExtra(query, opts, c.ext, func(core.Hit) bool { return true }); err == nil {
							t.Fatalf("%s: provider-backed engine accepted an extra layer", label)
						}
						continue
					}
					r = newStreamRun(t, label+" SearchExtra")
					if err := e.SearchExtra(query, opts, c.ext, r.hit); err != nil {
						t.Fatalf("%s: %v", r.label, err)
					}
					checkAgainstOracle(t, r.label, r.hits, live, top)

					e.mutable = c.ext
					r = newStreamRun(t, label+" SearchBounded+extra")
					err := e.SearchBounded(query, opts, r.hit, r.bound)
					e.mutable = nil
					if err != nil {
						t.Fatalf("%s: %v", r.label, err)
					}
					checkAgainstOracle(t, r.label, r.hits, live, top)
				}
			}
		}
	}
	if oracleHits < 20 {
		t.Fatalf("only %d oracle hits across the matrix; the queries exercise too little", oracleHits)
	}
}

// TestIdleSourceAfterFullBuffer: a source found idle only after an earlier
// source has filled the event buffer (a stealing prefix shard whose seeds
// were all claimed by shard 0 first) must not block the fan-out loop, which
// the merger does not drain until every source is launched.
func TestIdleSourceAfterFullBuffer(t *testing.T) {
	db := randomShardDB(t, rand.New(rand.NewSource(3)), seq.DNA, 4, 20)
	e, err := NewEngine(db, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	full := make(chan struct{})
	srcs := []source{
		{bound: n, run: func(_ core.Options, hit func(core.Hit) bool, _ func(int) bool) error {
			for i := 0; i < n; i++ {
				if i == 4*2+16 { // the event buffer's capacity: this send blocks
					close(full)
				}
				hit(core.Hit{SeqIndex: i, Score: n - i})
			}
			return nil
		}},
		{bound: n, idle: func() bool { <-full; return true }},
	}
	var got []core.Hit
	m := newMerger([]int{n, n}, core.Options{}, 1, 1, nil, func(h core.Hit) bool {
		got = append(got, h)
		return true
	})
	done := make(chan error, 1)
	go func() { done <- e.fanOutMerge(core.Options{}, srcs, m) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fan-out blocked completing an idle source")
	}
	if len(got) != n {
		t.Fatalf("merged %d hits, want %d", len(got), n)
	}
}
