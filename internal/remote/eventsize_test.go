package remote

import (
	"bufio"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/retry"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/shard"
)

func TestReadEventCap(t *testing.T) {
	fits := strings.Repeat("x", maxEventBytes-1) + "\n"
	long := strings.Repeat("x", maxEventBytes) + "\n"
	br := bufio.NewReader(strings.NewReader(fits + long))
	got, err := readEvent(br)
	if err != nil || len(got) != maxEventBytes {
		t.Fatalf("a line of exactly the cap: %d bytes, err %v", len(got), err)
	}
	if _, err := readEvent(br); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("a line one byte over the cap: err %v", err)
	}
}

// TestOversizedEventFailsOver: a replica that sends an event line longer
// than maxEventBytes fails its attempt, and the client fails over to a
// healthy replica whose stream is delivered intact.  With no healthy
// replica the slice fails.
func TestOversizedEventFailsOver(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := seq.DNA
	db := dbOf(t, a, randomSeqs(t, rng, a, 20, 80))
	eng, err := shard.NewEngine(db, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	good := httptest.NewServer(NewServer(eng))
	defer good.Close()
	oversized := strings.Repeat("x", maxEventBytes)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		// A conservative bound first, so the attempt opens, then a hit
		// whose ID alone is over the cap.
		w.Write([]byte(`{"e":"b","v":1000000}` + "\n"))
		w.Write([]byte(`{"e":"h","seq":0,"id":"` + oversized + `","score":1}` + "\n"))
	}))
	defer bad.Close()

	query := a.MustEncode("ACGTACGTACG")
	opts := core.Options{Scheme: score.MustScheme(score.UnitDNA(), -1), MinScore: 4}
	var want []core.Hit
	if err := eng.SearchBounded(query, opts, func(h core.Hit) bool {
		h.Rank = 0
		want = append(want, h)
		return true
	}, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline has no hits")
	}

	stream := func(replicas ...string) (*Client, []core.Hit, error) {
		c, err := NewClient(ClientConfig{
			Replicas:     replicas,
			MaxAttempts:  3,
			Retry:        retry.Default(3, time.Millisecond, 5*time.Millisecond),
			DisableHedge: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var hits []core.Hit
		err = c.Stream(query, opts, func(h core.Hit) bool {
			hits = append(hits, h)
			return true
		}, func(int) bool { return true })
		return c, hits, err
	}

	c, got, err := stream(bad.URL, good.URL)
	if err != nil {
		t.Fatalf("failover stream: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream after the oversized event differs\n got: %+v\nwant: %+v", got, want)
	}
	if h := c.Health()[0]; h.TotalFailures != 1 || !strings.Contains(h.LastError, "exceeds") {
		t.Fatalf("oversized replica health: %+v", h)
	}
	if m := c.Metrics().Snapshot(); m.Failovers < 1 {
		t.Fatalf("no failover recorded: %+v", m)
	}

	if _, _, err := stream(bad.URL); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("slice with only the oversized replica: err %v", err)
	}
}
