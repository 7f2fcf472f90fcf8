package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/diskst"
	"repro/internal/qcache"
)

// serveProc is one oasis-serve process the benchmark started.
type serveProc struct {
	cmd    *exec.Cmd
	base   string
	dir    string // index directory removed on Close
	cpu    cpuClock
	exited chan struct{}
}

// startServe starts oasis-serve with args on a free loopback port and waits
// until it reports ready.
func startServe(bin, logPath, dir string, args ...string) (*serveProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serveProc{cmd: cmd, base: "http://" + addr, dir: dir, cpu: processCPU(cmd.Process.Pid), exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return nil, fmt.Errorf("oasis-serve exited during start-up; see %s", logPath)
		default:
		}
		if resp, err := http.Get(p.base + "/healthz/ready"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.Close()
	return nil, fmt.Errorf("oasis-serve not ready after 60s; see %s", logPath)
}

// Close stops the server gracefully (SIGKILL after 10s), waits for it to
// exit and removes its index directory.
func (p *serveProc) Close() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	if p.dir != "" {
		return os.RemoveAll(p.dir)
	}
	return nil
}

func (p *serveProc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// serveMetrics is the part of oasis-serve's /metrics the benchmark reads.
type serveMetrics struct {
	Engine struct {
		Pools []diskst.PoolStats `json:"pools"`
		Cache *qcache.Stats      `json:"cache"`
	} `json:"engine"`
	Admission struct {
		Rejected int64 `json:"rejected"`
	} `json:"admission"`
}

func (p *serveProc) metrics() (*serveMetrics, error) {
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serveMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &m, nil
}

// doneEvent is the end of one /search stream.
type doneEvent struct {
	Type      string     `json:"type"`
	ElapsedMs float64    `json:"elapsed_ms"`
	Degraded  bool       `json:"degraded"`
	Stats     core.Stats `json:"stats"`
	Error     string     `json:"error"`
}

var (
	seqIDField = []byte(`"seq_id":"`)
	scoreField = []byte(`"score":`)
	hitType    = []byte(`{"type":"hit"`)
)

// searchHTTP posts one query to /search and reads the NDJSON stream,
// calling hit per hit line as it arrives.
func searchHTTP(client *http.Client, base, query string, minScore, top int, hit func(hitKey)) (*doneEvent, error) {
	body := fmt.Sprintf(`{"query":%q,"min_score":%d,"top":%d}`, query, minScore, top)
	resp, err := client.Post(base+"/search", "application/json", bytes.NewBufferString(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, hitType) {
			k, err := parseHit(line)
			if err != nil {
				return nil, err
			}
			hit(k)
			continue
		}
		var d doneEvent
		if err := json.Unmarshal(line, &d); err != nil {
			return nil, fmt.Errorf("bad event %q: %w", line, err)
		}
		switch {
		case d.Type == "error":
			return nil, fmt.Errorf("error event: %s", d.Error)
		case d.Type != "done":
			return nil, fmt.Errorf("unexpected event %q", line)
		case d.Degraded:
			return nil, fmt.Errorf("degraded answer")
		}
		// Read to the end of the body so the connection is reused.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return nil, err
		}
		return &d, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended without a done event")
}

// parseHit extracts the sequence ID and score from a hit line without a
// full JSON decode, which would cost the client more CPU than the server
// spends on the hit.
func parseHit(line []byte) (hitKey, error) {
	i := bytes.Index(line, seqIDField)
	j := bytes.Index(line, scoreField)
	if i < 0 || j < 0 {
		return hitKey{}, fmt.Errorf("bad hit line %q", line)
	}
	id := line[i+len(seqIDField):]
	end := bytes.IndexByte(id, '"')
	num := line[j+len(scoreField):]
	k := 0
	for k < len(num) && num[k] >= '0' && num[k] <= '9' {
		k++
	}
	score, err := strconv.Atoi(string(num[:k]))
	if end < 0 || err != nil {
		return hitKey{}, fmt.Errorf("bad hit line %q", line)
	}
	return hitKey{string(id[:end]), score}, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
