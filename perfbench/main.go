// Command perfbench is the repository's benchmark: it generates one
// workload's inputs from a seed, drives the system through its public entry
// points, checks every answer, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) named in BENCHMARK.json.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload mem-unique --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  WORKLOADS.md describes the
// workloads and what each metric should move.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/score"
)

// defaultSeed is the seed whose inputs fingerprints.json records.
const defaultSeed = 1

//go:embed fingerprints.json
var fingerprintsJSON []byte

// setupRuns is how many times a run sets the system up; setup_s is the
// median.
const setupRuns = 5

// cacheBytes is the in-process engines' result-cache budget, oasis-serve's
// default.
const cacheBytes = 32 << 20

type workloadDef struct {
	sizes sizes
	// generators is how many goroutines or connections generate load.
	generators int
	run        func(*runCtx) error
}

var workloads = map[string]workloadDef{
	"mem-unique":      {sizes{residues: 500_000, pool: 4000, stream: 4000}, 1, runMemUnique},
	"disk-serve-zipf": {sizes{residues: 400_000, pool: 10000, stream: 40000, zipf: true}, 2, runDiskServe},
	"write-mix": {sizes{residues: 400_000, pool: writePool, stream: writePool * hotRepeats, window: hotWindow, repeats: hotRepeats,
		heldOut: 400, writes: 1000}, 2, runWriteMix},
	"fanout": {sizes{residues: 160_000, pool: 4000, stream: 4000}, 1, runFanout},
}

// runCtx is one run: its flags, inputs, and what it measured.
type runCtx struct {
	name    string
	seed    int64
	seconds time.Duration
	traced  bool
	binDir  string
	workDir string
	in      *inputs
	// cpu is the serving process's CPU clock: the benchmark's own unless a
	// workload serves from another process.
	cpu     cpuClock
	tr      *tracer
	ka      score.KarlinAltschul
	tally   tally
	metrics map[string]float64
}

func (r *runCtx) set(name string, v float64) { r.metrics[name] = v }

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Int64("seed", defaultSeed, "input seed")
		seconds  = flag.Int("seconds", 15, "measured seconds")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		binDir   = flag.String("bin-dir", ".bench_build/bin", "directory holding the oasis-serve binary")
		workDir  = flag.String("work-dir", ".bench_build", "directory for indexes and span files")
		printFPs = flag.Bool("print-fingerprints", false, "print every workload's default-seed input fingerprints and exit")
	)
	flag.Parse()
	if *printFPs {
		return printFingerprints()
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	def, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	fmt.Println("host:", hostFingerprint())
	if def.generators > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: %s needs %d load generators but nproc is %d\n", *name, def.generators, runtime.NumCPU())
		return 2
	}
	if err := checkFingerprint(*name, def.sizes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	in, err := generate(def.sizes, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generating inputs:", err)
		return 1
	}
	r := &runCtx{
		name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceOn == 1, binDir: *binDir, workDir: *workDir, in: in,
		cpu: selfCPU(), metrics: map[string]float64{},
	}
	if r.ka, err = score.Params(score.ByName(matrixName), nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.traced {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	steal0, total0 := cpuSteal()
	if err := def.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	// Time the hypervisor gave this host's CPUs to others makes every
	// timing of the run worse; report it so noisy runs can be told apart.
	steal1, total1 := cpuSteal()
	stolen := ratio(float64(steal1-steal0), float64(total1-total0))
	r.set("host.steal_share", stolen)
	fmt.Printf("host: %.1f%% of CPU time stolen during the run\n", 100*stolen)
	if r.traced {
		path := filepath.Join(r.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.name, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), path)
	}
	return r.print(spec)
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable lines and then the result line.  Every
// metric of the run's kind is printed; a per-layer metric the workload does
// not exercise reads 0.
func (r *runCtx) print(spec *benchSpec) int {
	want := spec.EndToEnd
	if r.traced {
		want = spec.PerLayer
	}
	res := result{Attempted: r.tally.attempted, Failed: r.tally.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok && !r.traced {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure end-to-end metric %s\n", r.name, m.Name)
			return 1
		}
		note := ""
		if !ok {
			note = "  (not exercised by this workload)"
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s = %v\n", m.Name, v)
			return 1
		}
		fmt.Printf("%-36s %14.4f %s%s\n", m.Name, v, m.Unit, note)
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	reasons := make([]string, 0, len(r.tally.reasons))
	for k, n := range r.tally.reasons {
		reasons = append(reasons, fmt.Sprintf("%s x%d", k, n))
	}
	sort.Strings(reasons)
	fmt.Printf("attempted %d, failed %d (failed_frac %.6f) %s\n", r.tally.attempted, r.tally.failed,
		ratio(float64(r.tally.failed), float64(r.tally.attempted)), strings.Join(reasons, "; "))
	res.Correct = r.tally.failed == 0 && r.tally.attempted > 0
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// hostFingerprint names what the numbers were measured on.
func hostFingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				cpu = strings.TrimSpace(l[strings.Index(l, ":")+1:])
				break
			}
		}
	}
	commit := "none"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest())
}

// sourceDigest hashes the Go sources and module files under the current
// directory, which identifies the code when the checkout is not a git
// repository.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

type fingerprint struct {
	Corpus string `json:"corpus"`
	Stream string `json:"stream"`
}

func checkFingerprint(name string, sz sizes) error {
	var want map[string]fingerprint
	if err := json.Unmarshal(fingerprintsJSON, &want); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	in, err := generate(sz, defaultSeed)
	if err != nil {
		return err
	}
	corpus, stream := in.fingerprint()
	if w := want[name]; w.Corpus != corpus || w.Stream != stream {
		return fmt.Errorf("%s: default-seed inputs changed (corpus %s, stream %s; fingerprints.json has %s, %s): "+
			"the generators or sizes changed, so results are not comparable with earlier runs",
			name, corpus[:12], stream[:12], short(w.Corpus), short(w.Stream))
	}
	return nil
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

func printFingerprints() int {
	out := map[string]fingerprint{}
	for name, def := range workloads {
		in, err := generate(def.sizes, defaultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		c, s := in.fingerprint()
		out[name] = fingerprint{c, s}
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(b))
	return 0
}

// setup builds the system setupRuns times (once when traced), closing all
// but the last, and records the median CPU time of a build, the benchmark's
// own plus that of an oasis-serve it started, as setup_s, and the median
// wall-clock time as wall.setup_s.
func (r *runCtx) setup(build func() (io.Closer, error)) (io.Closer, error) {
	n := setupRuns
	if r.traced {
		n = 1
	}
	var times, cpus dist
	self := selfCPU()
	var last io.Closer
	for i := 0; i < n; i++ {
		if last != nil {
			if err := last.Close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0, c0 := time.Now(), self()
		c, err := build()
		if err != nil {
			return nil, err
		}
		times.add(time.Since(t0))
		cpu := self() - c0
		if p, ok := c.(*serveProc); ok {
			cpu += p.cpu()
		}
		cpus.add(cpu)
		last = c
	}
	r.set("setup_s", cpus.p50()/1000)
	r.set("wall.setup_s", times.p50()/1000)
	return last, nil
}

// resetPeakRSS starts peak-memory accounting for the serving phase, so the
// set-ups before it (measured by setup_s) do not count.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: older kernels keep the old peak
}

// cpuSteal reads the steal and total CPU ticks from /proc/stat (zeros
// where it is unavailable).
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// peakRSSMB reads a process's peak resident set from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimPrefix(l, "VmHWM:"), &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %s", pid)
}
