package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one call into a layer's public function.  Spans of one request
// share Req; Parent indexes the span that caused this one (-1 for none).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, which is how untraced runs use the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, req, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, req, parent, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// searchFn runs one query through one layer's public search function,
// calling hit for every reported hit.
type searchFn func(q []byte, opts core.Options, hit func(core.Hit) bool) (core.Stats, error)

// call is what one traced layer call did.  iv is relative to the start of
// the query's pass; firstHit is since the call started (-1 without hits).
type call struct {
	iv       interval
	firstHit time.Duration
	hits     int
	stats    core.Stats
	err      error
}

func (c call) dur() time.Duration { return c.iv.end - c.iv.start }

// pass replays every sample query once through fns, all of them at once
// when there are several (one goroutine each, as shard fans out), and
// records a span per call.  The result is indexed [query][fn].
func (t *tracer) pass(name string, sample [][]byte, opts func([]byte) core.Options, fns ...searchFn) [][]call {
	out := make([][]call, len(sample))
	// Start every pass with the same heap: garbage left by the previous
	// pass or by building indexes must not be collected during this one.
	runtime.GC()
	for i, q := range sample {
		o := opts(q)
		out[i] = make([]call, len(fns))
		t0 := time.Now()
		starts := make([]time.Time, len(fns))
		var wg sync.WaitGroup
		for j, fn := range fns {
			wg.Add(1)
			go func(j int, fn searchFn) {
				defer wg.Done()
				c := call{firstHit: -1}
				starts[j] = time.Now()
				c.stats, c.err = fn(q, o, func(core.Hit) bool {
					if c.hits == 0 {
						c.firstHit = time.Since(starts[j])
					}
					c.hits++
					return true
				})
				c.iv = interval{starts[j].Sub(t0), time.Since(t0)}
				out[i][j] = c
			}(j, fn)
		}
		wg.Wait()
		parent := -1
		if len(fns) > 1 {
			parent = t.add(name+".fanout", i, -1, t0, time.Now())
		}
		for j, c := range out[i] {
			t.add(name, i, parent, starts[j], t0.Add(c.iv.end))
		}
	}
	return out
}

// selfTimes is, per query, the parent layer's call duration minus the union
// of the child layer's calls for the same query in its own pass.
func selfTimes(parent, child [][]call) dist {
	var d dist
	for i := range parent {
		ivs := make([]interval, len(child[i]))
		for j, c := range child[i] {
			ivs[j] = c.iv
		}
		d.add(selfTime(parent[i][0].dur(), ivs))
	}
	return d
}
