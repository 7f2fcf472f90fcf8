package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/score"
	"repro/internal/seq"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {999, 98}, {500, 98}, {499, 95}, {100, 90}, {20, 50}, {19, 0}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.want > 0 && beyond(tc.n, tc.want) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond(tc.n, tc.want), tc.want)
		}
	}
	// 1..1000 ms: p99 is the 990th value, with ten values above it.
	var d dist
	for i := 1000; i >= 1; i-- {
		d = append(d, float64(i))
	}
	if v, p := d.tail(99); p != 99 || v != 990 {
		t.Errorf("tail(99) of 1..1000 = %v at p%v, want 990 at p99", v, p)
	}
	// d is sorted now, so d[:500] holds 1..500.
	if v, p := d[:500].tail(99); p != 98 || v != 490 {
		t.Errorf("tail(99) of 500 samples = %v at p%v, want 490 at p98", v, p)
	}
}

func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	// Ten requests due 10ms apart; the first stalls for 200ms.  With one
	// connection every later request waits behind it, and that wait must
	// show in its latency and lateness.
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	outs, backlog, unsent := openLoop(due, 1, time.Second, func(i int) (time.Time, bool) {
		if i == 0 {
			time.Sleep(200 * time.Millisecond)
		}
		return time.Now(), true
	})
	if len(outs) != 10 || unsent != 0 {
		t.Fatalf("sent %d, unsent %d; want 10, 0", len(outs), unsent)
	}
	last := outs[9]
	if last.latency() < 100*time.Millisecond {
		t.Errorf("last request latency %v hides the stall (due %v, start %v, end %v)", last.latency(), last.due, last.start, last.end)
	}
	if last.late() < 100*time.Millisecond {
		t.Errorf("last request lateness %v, want the stall", last.late())
	}
	if last.end-last.start > 50*time.Millisecond {
		t.Errorf("service time %v should be short; the stall is waiting", last.end-last.start)
	}
	if backlog < 5 {
		t.Errorf("backlog max %d, want the requests queued behind the stall", backlog)
	}
	var e e2e
	for _, o := range outs {
		e.record(o)
	}
	if v, _ := e.lat.tail(50); v < 100 {
		t.Errorf("median latency %v ms, want the stall counted", v)
	}
}

func TestOpenLoopLeavesBacklogUnsent(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	outs, _, unsent := openLoop(due, 1, 20*time.Millisecond, func(int) (time.Time, bool) {
		time.Sleep(50 * time.Millisecond)
		return time.Time{}, true
	})
	if len(outs) != 1 || unsent != 2 {
		t.Errorf("sent %d, unsent %d; want 1 sent and the 2 behind it unsent", len(outs), unsent)
	}
	if outs[0].firstHit != -1 {
		t.Errorf("firstHit %v for a request without hits, want -1", outs[0].firstHit)
	}
}

func TestRepeatShare(t *testing.T) {
	if got := repeatShare(nil, []int{1, 2, 1, 3, 2, 1}); got != 0.5 {
		t.Errorf("repeatShare = %v, want 0.5", got)
	}
	if got := repeatShare([]int{1, 2}, []int{1, 2, 3, 3}); got != 0.75 {
		t.Errorf("repeatShare with history = %v, want 0.75", got)
	}
	// A Zipf stream over a pool repeats exactly what it does not draw
	// fresh.
	in, err := generate(sizes{residues: 20_000, pool: 50, stream: 2000, zipf: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, q := range in.stream {
		distinct[q] = true
	}
	want := 1 - float64(len(distinct))/float64(len(in.stream))
	if got := repeatShare(nil, in.stream); math.Abs(got-want) > 1e-12 {
		t.Errorf("Zipf repeatShare = %v, want %v", got, want)
	}
	if got := repeatShare(nil, in.stream); got < 0.9 {
		t.Errorf("Zipf(%v) over 50 queries repeats only %v of 2000 requests", zipfS, got)
	}
}

func TestSelfTimeSubtractsUnionOfConcurrentChildren(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name     string
		children []interval
		union    time.Duration
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{0, 2 * ms}, {5 * ms, 6 * ms}}, 3 * ms},
		{"overlapping", []interval{{0, 4 * ms}, {2 * ms, 6 * ms}}, 6 * ms},
		{"nested", []interval{{1 * ms, 9 * ms}, {2 * ms, 3 * ms}, {4 * ms, 8 * ms}}, 8 * ms},
		{"touching", []interval{{0, 2 * ms}, {2 * ms, 3 * ms}}, 3 * ms},
	} {
		if got := unionLength(tc.children); got != tc.union {
			t.Errorf("%s: union %v, want %v", tc.name, got, tc.union)
		}
		if got := selfTime(10*ms, tc.children); got != 10*ms-tc.union {
			t.Errorf("%s: self %v, want %v", tc.name, got, 10*ms-tc.union)
		}
	}
	parent := [][]call{{{iv: interval{0, 10 * ms}}}}
	child := [][]call{{{iv: interval{ms, 7 * ms}}, {iv: interval{2 * ms, 8 * ms}}}}
	if got := selfTimes(parent, child).p50(); got != 3 {
		t.Errorf("selfTimes = %v ms, want 3", got)
	}
}

func TestFailureAccounting(t *testing.T) {
	db, err := seq.NewDatabase(seq.Protein, []seq.Sequence{
		{ID: "A", Residues: seq.Protein.MustEncode("MKVLAAGDKDGDGCITTKELGKV")},
		{ID: "B", Residues: seq.Protein.MustEncode("PPPPGGGGSSSSDKDGDGCITAKEL")},
		{ID: "C", Residues: seq.Protein.MustEncode("WWWWYYYYHHHH")},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := seq.Protein.MustEncode("DKDGDGCITTKEL")
	want, err := oracle(db, q, 20, benchScheme())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("oracle found %v, want the two planted motifs", want)
	}
	verify := func(got answer) int {
		var tl tally
		s := sampleCheck{want: 1}
		s.offer(q, 20, got)
		tl.attempt()
		if err := s.verify(db, benchScheme(), nil, &tl); err != nil {
			t.Fatal(err)
		}
		return tl.failed
	}
	if n := verify(want); n != 0 {
		t.Errorf("exact answer counted %d failures", n)
	}
	if n := verify(want[:1]); n != 1 {
		t.Errorf("dropped hit counted %d failures, want 1", n)
	}
	if n := verify(append(append(answer(nil), want...), hitKey{"C", 21})); n != 1 {
		t.Errorf("extra hit counted %d failures, want 1", n)
	}
	if n := verify(answer{want[0], {want[1].id, want[1].score + 1}}); n != 1 {
		t.Errorf("wrong score counted %d failures, want 1", n)
	}

	c := newChecker()
	if why := c.check(0, q, 20, answer{{"A", 5}, {"B", 9}}); why == "" {
		t.Error("hits out of score order passed")
	}
	if why := c.check(1, q, 20, want); why != "" {
		t.Errorf("first answer failed: %s", why)
	}
	if (answer{want[1], want[0]}).digest() != want.digest() {
		t.Error("the repeat check depends on hit order")
	}
	if why := c.check(1, q, 20, want[:1]); why == "" {
		t.Error("repeated query returning fewer hits passed")
	}
}

func TestTallyIsSafeForConcurrentUse(t *testing.T) {
	var tl tally
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tl.attempt()
				tl.fail("x")
			}
		}()
	}
	wg.Wait()
	if tl.attempted != 400 || tl.failed != 400 || tl.reasons["x"] != 400 {
		t.Errorf("tally %d/%d/%v, want 400 each", tl.attempted, tl.failed, tl.reasons)
	}
}

func TestParseHit(t *testing.T) {
	k, err := parseHit([]byte(`{"type":"hit","query_id":"q1","rank":1,"seq_id":"SYN|P00063","score":37,"evalue":0.43}`))
	if err != nil || k != (hitKey{"SYN|P00063", 37}) {
		t.Errorf("parseHit = %v, %v", k, err)
	}
	if _, err := parseHit([]byte(`{"type":"hit","rank":1}`)); err == nil {
		t.Error("hit without seq_id parsed")
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	sz := sizes{residues: 20_000, pool: 30, stream: 100, zipf: true, heldOut: 20, writes: 40}
	a, err := generate(sz, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(sz, 9)
	c, _ := generate(sz, 10)
	ac, as := a.fingerprint()
	bc, bs := b.fingerprint()
	cc, cs := c.fingerprint()
	if ac != bc || as != bs {
		t.Error("same seed gave different inputs")
	}
	if ac != cc {
		t.Error("different seeds gave different corpora; the corpus is the same in every run")
	}
	if as == cs {
		t.Error("different seeds gave the same queries and writes")
	}
	live := map[int]bool{}
	for i, w := range a.writes {
		if w.insert {
			live[i] = true
		} else if !live[w.arg] {
			t.Errorf("write %d deletes op %d, which is not a live insert", i, w.arg)
		} else {
			delete(live, w.arg)
		}
	}
}

func TestZipfCDF(t *testing.T) {
	// Weights 1, 1/2, 1/3, 1/4 over their sum 25/12.
	want := []float64{12.0 / 25, 18.0 / 25, 22.0 / 25, 1}
	for k, got := range zipfCDF(1, 4) {
		if math.Abs(got-want[k]) > 1e-12 {
			t.Errorf("zipfCDF(1, 4)[%d] = %v, want %v", k, got, want[k])
		}
	}
	// The most popular query's share of a long stream is its weight.
	in, err := generate(sizes{residues: 20_000, pool: 50, stream: 20000, zipf: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, q := range in.stream {
		if q == 0 {
			n++
		}
	}
	if got, want := float64(n)/float64(len(in.stream)), zipfCDF(zipfS, 50)[0]; math.Abs(got-want) > 0.02 {
		t.Errorf("query 0 drew %v of the stream, want %v", got, want)
	}
}

func TestClosedLoopCountsEveryFailure(t *testing.T) {
	in, err := generate(sizes{residues: 20_000, pool: 30, stream: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &runCtx{in: in, cpu: selfCPU()}
	if r.ka, err = score.Params(score.ByName(matrixName), nil); err != nil {
		t.Fatal(err)
	}
	pos := 0
	fe := func(q []byte, _ int, hit func(hitKey)) (reply, error) {
		time.Sleep(time.Millisecond)
		if pos%2 == 0 {
			return reply{server: -1}, fmt.Errorf("refused")
		}
		hit(hitKey{"A", 30})
		hit(hitKey{"B", 40}) // out of score order
		return reply{server: -1}, nil
	}
	next := func() int { pos++; return pos % len(in.queries) }
	// A warm-up phase and a measured phase: failures of both must stay in
	// the tally.
	r.closedLoop(20*time.Millisecond, next, fe, newChecker(), nil, "")
	e := r.closedLoop(50*time.Millisecond, next, fe, newChecker(), nil, "")
	if r.tally.attempted != pos || r.tally.failed != pos {
		t.Errorf("tally %d attempted, %d failed; want all %d requests of both phases failed", r.tally.attempted, r.tally.failed, pos)
	}
	if len(e.lat) != e.done || e.lat.p50() != failedLatencyMS {
		t.Errorf("failed requests must count at %v ms: p50 %v over %d samples", failedLatencyMS, e.lat.p50(), len(e.lat))
	}
}

func TestCheckerIsSafeForConcurrentUse(t *testing.T) {
	c := newChecker()
	q := seq.Protein.MustEncode("DKDGDGCITTKEL")
	want := answer{{"A", 40}, {"B", 30}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if why := c.check(i%10, q, 20, want); why != "" {
					t.Error(why)
				}
			}
		}()
	}
	wg.Wait()
	if len(c.seen) != 10 || len(c.sample.got) != oracleSample {
		t.Errorf("%d queries seen, %d sampled; want 10 and %d", len(c.seen), len(c.sample.got), oracleSample)
	}
}

func TestCPUClockCountsRunningNotWaiting(t *testing.T) {
	self, byPID := selfCPU(), processCPU(os.Getpid())
	c0, p0 := self(), byPID()
	if c0 <= 0 || p0 <= 0 {
		t.Fatalf("clocks read %v and %v, want the CPU time used so far", c0, p0)
	}
	time.Sleep(50 * time.Millisecond)
	if d := self() - c0; d > 20*time.Millisecond {
		t.Errorf("sleeping 50ms used %v of CPU", d)
	}
	x := 0
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); x++ {
	}
	if d := self() - c0; d < 20*time.Millisecond {
		t.Errorf("spinning 50ms used %v of CPU (%d turns)", d, x)
	}
	if d := byPID() - p0; d < 20*time.Millisecond {
		t.Errorf("the process clock by pid saw %v of CPU", d)
	}
}
