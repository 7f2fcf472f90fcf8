package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one request as the load generator saw it.  Times are relative
// to the schedule's start; firstHit is -1 when no hit arrived.
type outcome struct {
	i                         int // index in the schedule
	due, start, firstHit, end time.Duration
	ok                        bool
}

// latency is measured from when the request was due, so time a request
// spent waiting behind a stalled one counts against the system.
func (o outcome) latency() time.Duration { return o.end - o.due }

func (o outcome) late() time.Duration { return o.start - o.due }

// openLoop sends request i at due[i] from at most workers goroutines,
// whether or not earlier requests have finished.  A request that cannot
// start on time starts late.  Requests still unstarted at stopAt are not
// sent: they are the backlog the system failed to absorb.
func openLoop(due []time.Duration, workers int, stopAt time.Duration, do func(i int) (firstHit time.Time, ok bool)) (out []outcome, backlogMax int, unsent int) {
	out = make([]outcome, len(due))
	epoch := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := time.Until(epoch.Add(due[i])); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(epoch)
				if start >= stopAt {
					mu.Lock()
					unsent++
					mu.Unlock()
					continue
				}
				// Requests due by now but not yet started, this one included.
				backlog := sort.Search(len(due), func(j int) bool { return due[j] > start }) - i
				fh, ok := do(i)
				end := time.Since(epoch)
				o := outcome{i: i, due: due[i], start: start, end: end, firstHit: -1, ok: ok}
				if !fh.IsZero() {
					o.firstHit = fh.Sub(epoch)
				}
				out[i] = o
				mu.Lock()
				if backlog > backlogMax {
					backlogMax = backlog
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sent := out[:0]
	for _, o := range out {
		if o.end > 0 {
			sent = append(sent, o)
		}
	}
	return sent, backlogMax, unsent
}
