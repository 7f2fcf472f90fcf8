package main

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/align"
	"repro/internal/score"
	"repro/internal/seq"
)

// hitKey is what the exhaustive oracle defines for one reported hit: which
// sequence, at what score.  Alignment endpoints of equal-score alignments
// may legitimately differ, so they are not compared.
type hitKey struct {
	id    string
	score int
}

// answer is one query's hits in the order they were reported.
type answer []hitKey

// ordered reports whether the hits arrived in non-increasing score order,
// the paper's online property.
func (a answer) ordered() bool {
	for i := 1; i < len(a); i++ {
		if a[i].score > a[i-1].score {
			return false
		}
	}
	return true
}

// digest is an order-independent fingerprint of the answer's multiset, used
// to check that a repeated query returns what it returned first.
func (a answer) digest() [32]byte {
	s := append(answer(nil), a...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].score != s[j].score {
			return s[i].score > s[j].score
		}
		return s[i].id < s[j].id
	})
	h := sha256.New()
	for _, k := range s {
		fmt.Fprintf(h, "%s\x00%d\n", k.id, k.score)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// diffMultiset counts the hits of want that got lacks and the hits of got
// that want lacks.  Either kind makes the answer wrong.
func diffMultiset(got, want answer) (missing, extra int) {
	count := make(map[hitKey]int, len(want))
	for _, k := range want {
		count[k]++
	}
	for _, k := range got {
		count[k]--
	}
	for _, c := range count {
		if c > 0 {
			missing += c
		} else {
			extra -= c
		}
	}
	return missing, extra
}

// oracle is the exhaustive Smith-Waterman answer for one query.
func oracle(db *seq.Database, q []byte, minScore int, sch score.Scheme) (answer, error) {
	hits, err := align.SearchDatabase(db, q, sch, align.Options{MinScore: minScore})
	if err != nil {
		return nil, err
	}
	a := make(answer, len(hits))
	for i, h := range hits {
		a[i] = hitKey{h.SeqID, h.Score}
	}
	return a, nil
}

// tally counts requests and the ways they can fail.  A request that errors,
// is refused, is degraded or returns a wrong answer counts once as failed.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// sampleCheck holds the answers of a fixed query sample, compared with the
// oracle after the timed window.
type sampleCheck struct {
	want    int // sample size
	topK    int // requests asked for the top k sequences (0: all)
	queries [][]byte
	minimum []int
	got     []answer
}

func (s *sampleCheck) offer(q []byte, minScore int, a answer) {
	if len(s.got) < s.want {
		s.queries = append(s.queries, q)
		s.minimum = append(s.minimum, minScore)
		s.got = append(s.got, append(answer(nil), a...))
	}
}

// verify compares every sampled answer with the oracle over db, keeping only
// the hits keep accepts (nil keeps all), and counts each mismatch as a failed
// request in t.
func (s *sampleCheck) verify(db *seq.Database, sch score.Scheme, keep func(hitKey) bool, t *tally) error {
	for i, q := range s.queries {
		want, err := oracle(db, q, s.minimum[i], sch)
		if err != nil {
			return err
		}
		got := s.got[i]
		if keep != nil {
			got = filter(got, keep)
		}
		if why := compareTopK(got, want, s.topK); why != "" {
			t.fail(why)
		}
	}
	if len(s.queries) == 0 {
		return fmt.Errorf("no query of the oracle sample completed")
	}
	return nil
}

// compareTopK checks an answer against the oracle's.  With k > 0 the answer
// must be the oracle's k best hits; which sequences tie at the k-th score is
// the engine's choice, but each must be an oracle hit at that score.
func compareTopK(got, want answer, k int) string {
	if k > 0 && len(want) > k {
		scores := func(a answer) []int {
			s := make([]int, len(a))
			for i, h := range a {
				s[i] = h.score
			}
			sort.Sort(sort.Reverse(sort.IntSlice(s)))
			return s
		}
		if _, extra := diffMultiset(got, want); extra > 0 {
			return fmt.Sprintf("top-%d answer has %d hits the oracle lacks", k, extra)
		}
		if !slices.Equal(scores(got), scores(want)[:k]) {
			return fmt.Sprintf("top-%d answer's scores differ from the oracle's", k)
		}
		return ""
	}
	if missing, extra := diffMultiset(got, want); missing+extra > 0 {
		return fmt.Sprintf("oracle mismatch (%d missing, %d extra)", missing, extra)
	}
	return ""
}

func filter(a answer, keep func(hitKey) bool) answer {
	var out answer
	for _, k := range a {
		if keep(k) {
			out = append(out, k)
		}
	}
	return out
}
