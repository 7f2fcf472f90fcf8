package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/seq"
	"repro/internal/shard"
	"repro/oasis"
)

// replicasPerSlice loopback shard servers serve each slice.
const replicasPerSlice = 2

// fanoutSystem is the coordinator and the shard servers the benchmark owns.
type fanoutSystem struct {
	co      *oasis.Coordinator
	slices  []*shard.Engine
	indexes []core.Index
	servers []*http.Server
	served  chan error
	net     *netCounters
}

func (f *fanoutSystem) Close() error {
	var err error
	if f.co != nil {
		err = f.co.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for range f.servers {
		if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	return err
}

// startFanout serves each sequence slice of db from replicasPerSlice
// remote.NewServer listeners and opens a coordinator over them.
func (r *runCtx) startFanout() (*fanoutSystem, error) {
	part, err := seq.PartitionDatabase(r.in.db, 2)
	if err != nil {
		return nil, err
	}
	idx, err := r.buildTrees(part.Shards)
	if err != nil {
		return nil, err
	}
	f := &fanoutSystem{indexes: idx, net: &netCounters{}, served: make(chan error, len(idx)*replicasPerSlice)}
	var topology [][]string
	for s, x := range idx {
		identity := make([]int, part.Shards[s].NumSequences())
		for i := range identity {
			identity[i] = i
		}
		sh, err := shard.NewEngineFromSet(shard.IndexSet{Partition: shard.PartitionBySequence, Indexes: []core.Index{x}, Globals: [][]int{identity}}, shard.Options{})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.slices = append(f.slices, sh)
		var addrs []string
		for rep := 0; rep < replicasPerSlice; rep++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				f.Close()
				return nil, err
			}
			mux := http.NewServeMux()
			remote.NewServer(sh).Register(mux)
			srv := &http.Server{Handler: mux}
			f.servers = append(f.servers, srv)
			go func() { f.served <- srv.Serve(countingListener{ln, f.net}) }()
			addrs = append(addrs, ln.Addr().String())
		}
		topology = append(topology, addrs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.co, err = oasis.OpenCoordinator(ctx, topology, oasis.CoordinatorOptions{CacheBytes: cacheBytes}); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// runFanout: a remote.Open coordinator over two in-memory slices, each
// served by two loopback shard servers; one closed-loop client; every query
// distinct.
func runFanout(r *runCtx) error {
	in := r.in
	c, err := r.setup(func() (io.Closer, error) { return r.startFanout() })
	if err != nil {
		return err
	}
	f := c.(*fanoutSystem)
	defer f.Close()
	eng := f.co.Engine()
	fe := engineFront(eng)
	chk := newChecker()
	pos := 0
	next := func() int {
		i := in.stream[pos%len(in.stream)]
		pos++
		return i
	}
	warm := len(in.queries) - 1
	r.closedLoop(time.Second, func() int { warm--; return warm + 1 }, fe, newChecker(), nil, "")
	resetPeakRSS()
	m0, w0, c0 := f.co.RemoteMetrics(), f.net.written.Load(), eng.Metrics().Cache
	e := r.closedLoop(r.seconds, next, fe, chk, nil, "")
	m1, w1 := f.co.RemoteMetrics(), f.net.written.Load()
	r.report(e)
	r.cacheMetrics(c0, eng.Metrics().Cache, nil, in.stream[:min(pos, len(in.stream))], e.replay)
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	r.set("remote.wire_bytes_per_hit", ratio(float64(w1-w0), float64(e.hits)))
	r.set("remote.attempts_per_stream", ratio(float64(m1.Attempts-m0.Attempts), float64(m1.Streams-m0.Streams)))
	r.set("remote.hedges_per_query", ratio(float64(m1.Hedges-m0.Hedges), float64(e.done)))
	r.set("remote.hedge_win_rate", ratio(float64(m1.HedgeWins-m0.HedgeWins), float64(m1.Hedges-m0.Hedges)))
	if m1.SliceFailures != m0.SliceFailures {
		r.tally.fail(fmt.Sprintf("%d slice streams exhausted every replica", m1.SliceFailures-m0.SliceFailures))
	}
	if r.traced {
		r.overhead(r.closedLoop(r.seconds/tracedShare, next, fe, chk, r.tr, "coordinator.search"))
		sample := make([][]byte, traceSample)
		for i := range sample {
			sample[i] = in.queries[next()]
		}
		coP := r.tr.pass("coordinator.search", sample, r.coreOpts, engineFn(eng))
		slP := r.tr.pass("shard.search", sample, r.coreOpts, shardFn(f.slices[0]), shardFn(f.slices[1]))
		coreP := r.tr.pass("core.search", sample, r.coreOpts, coreFn(f.indexes[0]), coreFn(f.indexes[1]))
		for _, p := range [][][]call{coP, slP, coreP} {
			if err := passErr(p); err != nil {
				return err
			}
		}
		r.coreMetrics(coreP)
		r.set("remote.self_p50_ms", selfTimes(coP, slP).p50())
		r.set("shard.self_p50_ms", selfTimes(slP, coreP).p50())
	}
	return chk.sample.verify(in.db, benchScheme(), nil, &r.tally)
}
