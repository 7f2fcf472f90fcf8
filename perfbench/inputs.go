package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/workload"
)

// The paper's protein search setting: PAM30, linear gap -10, E = 20000.
const (
	matrixName = "PAM30"
	gapPenalty = -10
	eValue     = 20000
)

func benchScheme() score.Scheme {
	return score.Scheme{Matrix: score.ByName(matrixName), Gap: gapPenalty}
}

// sizes fixes how much data a workload generates; see WORKLOADS.md.
type sizes struct {
	residues int64 // served corpus
	pool     int   // distinct queries
	stream   int   // requests drawn from the pool
	zipf     bool  // stream draws Zipf-distributed pool indexes (else 0,1,2,...)
	// window > 0 makes a rolling hot set: the stream cycles through window
	// consecutive pool queries repeats times, then moves to the next window.
	window, repeats int
	heldOut         int // sequences generated beside the corpus and inserted later
	writes          int // write operations (inserts and deletes)
}

// writeOp is one write of write-mix: insert heldOut[arg] under a new ID, or
// delete the sequence that write op arg inserted.
type writeOp struct {
	insert bool
	arg    int
}

// inputs is everything a workload feeds the system under test.  It is a
// pure function of the workload's sizes and the seed.
type inputs struct {
	db      *seq.Database
	heldOut []seq.Sequence
	queries [][]byte
	stream  []int
	gaps    []float64 // unit-rate exponential inter-arrival gaps
	writes  []writeOp
}

// corpusSeed fixes the generated corpus.  The paper searches one database,
// SWISS-PROT, in every experiment, and the corpus stands in for it, so it is
// the same in every run of a workload; --seed draws everything sent to the
// system: the query pool, its popularity, and the arrivals and writes.  With
// a corpus per seed, the motif families a seed planted moved the cost of
// every query of a run together: over ten seeds disk-serve-zipf's
// queries_per_cpu_s spread 0.145 (interquartile range over median), and
// 0.042 over ten other seeds with one corpus.
const corpusSeed = defaultSeed

func generate(sz sizes, seed int64) (*inputs, error) {
	cfg := workload.DefaultProteinConfig(sz.residues)
	cfg.NumSequences += sz.heldOut
	cfg.Seed = corpusSeed
	full, motifs, err := workload.ProteinDatabase(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{db: full}
	if sz.heldOut > 0 {
		n := full.NumSequences() - sz.heldOut
		base := make([]seq.Sequence, n)
		for i := range base {
			base[i] = full.Sequence(i)
		}
		for i := n; i < full.NumSequences(); i++ {
			in.heldOut = append(in.heldOut, full.Sequence(i))
		}
		if in.db, err = seq.NewDatabase(seq.Protein, base); err != nil {
			return nil, err
		}
	}
	// Queries come from motifs planted in the whole corpus, held-out
	// sequences included, so some of them hit inserted sequences.
	qcfg := workload.DefaultQueryConfig(sz.pool * 3 / 2)
	qcfg.Seed = seed*7919 + 17
	qs, err := workload.MotifQueries(full, motifs, qcfg)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if k := string(q.Residues); !seen[k] && len(in.queries) < sz.pool {
			seen[k] = true
			in.queries = append(in.queries, q.Residues)
		}
	}
	if len(in.queries) < sz.pool {
		return nil, fmt.Errorf("only %d distinct queries for a pool of %d", len(in.queries), sz.pool)
	}
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	var popular []float64
	if sz.zipf {
		popular = zipfCDF(zipfS, sz.pool)
	}
	for i := 0; i < sz.stream; i++ {
		switch {
		case popular != nil:
			in.stream = append(in.stream, sort.SearchFloat64s(popular, rng.Float64()))
		case sz.window > 0:
			block := i / (sz.window * sz.repeats)
			in.stream = append(in.stream, (block*sz.window+i%sz.window)%sz.pool)
		default:
			in.stream = append(in.stream, i%sz.pool)
		}
		in.gaps = append(in.gaps, rng.ExpFloat64())
	}
	var live []int // write ops whose insert is still live
	for i := 0; i < sz.writes; i++ {
		if len(live) > 0 && rng.Float64() < deleteShare {
			j := rng.Intn(len(live))
			in.writes = append(in.writes, writeOp{insert: false, arg: live[j]})
			live = append(live[:j], live[j+1:]...)
			continue
		}
		in.writes = append(in.writes, writeOp{insert: true, arg: i % len(in.heldOut)})
		live = append(live, i)
	}
	return in, nil
}

// Zipf exponent of disk-serve-zipf's query popularity and the share of
// write-mix writes that delete.  0.8 is the top of the 0.64-0.83 range
// Breslau et al. measured for the popularity of web requests ("Web Caching
// and Zipf-like Distributions", INFOCOM 1999); WORKLOADS.md gives the pool
// size that goes with it.
const (
	zipfS       = 0.8
	deleteShare = 0.1
)

// zipfCDF is the cumulative distribution of a Zipf law with exponent s over
// n items: item k (from 0) has weight 1/(k+1)^s.  Unlike math/rand's Zipf it
// allows s <= 1.
func zipfCDF(s float64, n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// fingerprint hashes the generated corpus and the query/arrival/write
// stream, so a change to the generators cannot silently change the data.
func (in *inputs) fingerprint() (corpus, stream string) {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for i := 0; i < in.db.NumSequences(); i++ {
		s := in.db.Sequence(i)
		put([]byte(s.ID))
		put(s.Residues)
	}
	for _, s := range in.heldOut {
		put([]byte(s.ID))
		put(s.Residues)
	}
	corpus = hex.EncodeToString(h.Sum(nil))
	h.Reset()
	for _, q := range in.queries {
		put(q)
	}
	var n [8]byte
	for i, q := range in.stream {
		binary.LittleEndian.PutUint64(n[:], uint64(q))
		h.Write(n[:])
		put([]byte(fmt.Sprintf("%.9g", in.gaps[i])))
	}
	for _, w := range in.writes {
		put([]byte(fmt.Sprintf("%t:%d", w.insert, w.arg)))
	}
	return corpus, hex.EncodeToString(h.Sum(nil))
}

// schedule turns the unit-rate gaps from index from on into due times of a
// Poisson process at rate per second, covering at most d.
func (in *inputs) schedule(from int, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for i := from; i < len(in.gaps); i++ {
		t += in.gaps[i] / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			break
		}
		due = append(due, at)
	}
	return due
}
