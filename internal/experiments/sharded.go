package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// ShardedRow is one point of the sharded scale-out experiment: the whole
// query workload run through the sharded engine at one shard count in one
// partition mode.
type ShardedRow struct {
	// Mode is "sequence" (independent per-shard indexes) or "prefix"
	// (shared index, disjoint subtrees per shard).
	Mode    string
	Shards  int
	Workers int
	// QueryTime is the mean wall-clock time per query.
	QueryTime time.Duration
	// Hits is the total number of sequences reported across the workload.
	Hits int64
	// ColumnsExpanded / CellsComputed are summed across shards and queries.
	ColumnsExpanded int64
	CellsComputed   int64
	// Steals counts seeds migrated between prefix shards by the work
	// stealer across the workload (always 0 in sequence mode or with
	// stealing disabled).
	Steals int64
	// Speedup is the 1-shard QueryTime divided by this row's.
	Speedup float64
}

// shardedModes maps row labels to engine partition modes.
var shardedModes = []struct {
	name string
	mode shard.PartitionMode
}{
	{"sequence", shard.PartitionBySequence},
	{"prefix", shard.PartitionByPrefix},
}

// Sharded runs the workload through the sharded engine at each shard count
// in both partition modes and reports throughput and work counters.  The
// first row (sequence mode at the first shard count — run with 1 first for a
// meaningful baseline) anchors the speedup column.  workers <= 0 means one
// worker per shard.  noSteal disables work stealing between prefix shards
// (the scheduling ablation; sequence mode never steals).  Every row must
// report the same hit total; a mismatch is an error because sharding must
// never change results.
func Sharded(lab *Lab, shardCounts []int, workers int, noSteal bool) ([]ShardedRow, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	var rows []ShardedRow
	for _, pm := range shardedModes {
		for _, n := range shardCounts {
			if pm.mode == shard.PartitionByPrefix && n == 1 {
				// One prefix shard is the shared-index single search —
				// identical to sequence mode at 1 shard; skip the duplicate.
				continue
			}
			engine, err := shard.NewEngine(lab.DB, shard.Options{Shards: n, Workers: workers, Partition: pm.mode, NoSteal: noSteal})
			if err != nil {
				return nil, err
			}
			var st core.Stats
			var hits int64
			start := time.Now()
			for _, q := range lab.Queries {
				minScore := lab.minScoreFor(lab.Config.EValue, len(q.Residues))
				err := engine.Search(q.Residues, core.Options{
					Scheme: lab.Scheme, MinScore: minScore, Stats: &st,
				}, func(core.Hit) bool {
					hits++
					return true
				})
				if err != nil {
					return nil, err
				}
			}
			elapsed := time.Since(start)
			row := ShardedRow{
				Mode:            pm.name,
				Shards:          engine.NumShards(),
				Workers:         engine.Workers(),
				QueryTime:       elapsed / time.Duration(len(lab.Queries)),
				Hits:            hits,
				ColumnsExpanded: st.ColumnsExpanded,
				CellsComputed:   st.CellsComputed,
				Steals:          engine.Steals(),
			}
			if len(rows) > 0 {
				if row.Hits != rows[0].Hits {
					return nil, fmt.Errorf("experiments: %s sharding at %d shards reported %d hits, baseline %d",
						row.Mode, row.Shards, row.Hits, rows[0].Hits)
				}
				if row.QueryTime > 0 {
					row.Speedup = float64(rows[0].QueryTime) / float64(row.QueryTime)
				}
			} else {
				row.Speedup = 1
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// CheckPrefixColumns enforces the subtree-sharding work bound: every
// prefix-mode row's ColumnsExpanded must stay within budget (a ratio, e.g.
// 1.05) of the single-shard baseline row.  It returns an error naming the
// first violating row, and an error when the rows contain no baseline or no
// prefix rows (a misconfigured run must not pass vacuously).
func CheckPrefixColumns(rows []ShardedRow, budget float64) error {
	var base *ShardedRow
	for i := range rows {
		if rows[i].Shards == 1 {
			base = &rows[i]
			break
		}
	}
	if base == nil {
		return fmt.Errorf("experiments: no 1-shard baseline row to check prefix columns against")
	}
	checked := 0
	for _, r := range rows {
		if r.Mode != "prefix" {
			continue
		}
		checked++
		if float64(r.ColumnsExpanded) > budget*float64(base.ColumnsExpanded) {
			return fmt.Errorf("experiments: prefix sharding at %d shards expanded %d columns, over %.2fx the 1-shard baseline %d",
				r.Shards, r.ColumnsExpanded, budget, base.ColumnsExpanded)
		}
	}
	if checked == 0 {
		return fmt.Errorf("experiments: no prefix-mode rows to check (run shard counts > 1)")
	}
	return nil
}

// RenderSharded writes the scale-out experiment as a text table.
func RenderSharded(w io.Writer, rows []ShardedRow) {
	fmt.Fprintln(w, "Sharded scale-out — mean query time vs shard count and partition mode (order-preserving merge)")
	fmt.Fprintf(w, "%-10s %-8s %-8s %-14s %-10s %-16s %-16s %-8s %-8s\n",
		"mode", "shards", "workers", "time/query", "hits", "columns", "cells", "steals", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8d %-8d %-14s %-10d %-16d %-16d %-8d %-8.2f\n",
			r.Mode, r.Shards, r.Workers, fmtDur(r.QueryTime), r.Hits, r.ColumnsExpanded, r.CellsComputed, r.Steals, r.Speedup)
	}
	fmt.Fprintln(w)
}

// LiveBandRow summarises the live-band kernel ablation on the Figure-4
// filtering workload: identical hits, fewer cells.
type LiveBandRow struct {
	// BandTime / FullTime are mean per-query times with the band on/off.
	BandTime, FullTime time.Duration
	// BandCells / FullCells are total cells computed across the workload.
	BandCells, FullCells int64
	// Columns is the total columns expanded (identical in both modes: the
	// band changes which cells of a column are touched, not which columns
	// are expanded).
	Columns int64
	// Hits is the total hit count (identical in both modes by construction;
	// LiveBand returns an error otherwise).
	Hits int64
	// CellFraction is BandCells / FullCells.
	CellFraction float64
}

// LiveBand measures the live-band kernel against the exhaustive column
// sweep on the workload and verifies the hit streams are identical.
func LiveBand(lab *Lab) (LiveBandRow, error) {
	var row LiveBandRow
	for _, q := range lab.Queries {
		minScore := lab.minScoreFor(lab.Config.EValue, len(q.Residues))

		var bandStats core.Stats
		start := time.Now()
		band, err := core.SearchAll(lab.Mem, q.Residues, core.Options{
			Scheme: lab.Scheme, MinScore: minScore, Stats: &bandStats,
		})
		if err != nil {
			return row, err
		}
		row.BandTime += time.Since(start)

		var fullStats core.Stats
		start = time.Now()
		fullSweep, err := core.SearchAll(lab.Mem, q.Residues, core.Options{
			Scheme: lab.Scheme, MinScore: minScore, Stats: &fullStats,
			DisableLiveBand: true,
		})
		if err != nil {
			return row, err
		}
		row.FullTime += time.Since(start)

		if len(band) != len(fullSweep) {
			return row, fmt.Errorf("experiments: live band changed the hit count for %s: %d vs %d",
				q.ID, len(band), len(fullSweep))
		}
		for i := range band {
			if band[i] != fullSweep[i] {
				return row, fmt.Errorf("experiments: live band changed hit %d for %s", i, q.ID)
			}
		}
		row.Hits += int64(len(band))
		row.BandCells += bandStats.CellsComputed
		row.FullCells += fullStats.CellsComputed
		row.Columns += bandStats.ColumnsExpanded
	}
	n := time.Duration(len(lab.Queries))
	if n > 0 {
		row.BandTime /= n
		row.FullTime /= n
	}
	if row.FullCells > 0 {
		row.CellFraction = float64(row.BandCells) / float64(row.FullCells)
	}
	return row, nil
}

// RenderLiveBand writes the live-band ablation as a text table.
func RenderLiveBand(w io.Writer, row LiveBandRow) {
	fmt.Fprintln(w, "Live-band DP kernel — cells computed vs the exhaustive sweep (identical hits)")
	fmt.Fprintf(w, "%-14s %-14s %-16s %-16s %-10s %-8s\n",
		"band t/query", "full t/query", "band cells", "full cells", "fraction", "hits")
	fmt.Fprintf(w, "%-14s %-14s %-16d %-16d %-10.4f %-8d\n",
		fmtDur(row.BandTime), fmtDur(row.FullTime),
		row.BandCells, row.FullCells, row.CellFraction, row.Hits)
	fmt.Fprintln(w)
}

// ReadBenchJSON loads a benchmark report previously written by
// WriteBenchJSON (the checked-in BENCH_oasis.json trajectory file).
func ReadBenchJSON(path string) (BenchReport, error) {
	var report BenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return report, err
	}
	if err := json.Unmarshal(data, &report); err != nil {
		return report, fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	return report, nil
}

// CheckBandGate is the kernel regression gate: it compares the measured
// live-band time per query against the liveband/band record in the baseline
// report and fails when the current time exceeds budget (a ratio, e.g. 1.10
// for CI's 10% tolerance) times the recorded ns/op.  The measurement is
// single-threaded (one query at a time, no worker pool), so the comparison
// is meaningful across GOMAXPROCS values; the baseline's stamp is reported
// in the error for context anyway.
func CheckBandGate(row LiveBandRow, baselinePath string, budget float64) error {
	report, err := ReadBenchJSON(baselinePath)
	if err != nil {
		return err
	}
	for _, rec := range report.Records {
		if rec.Name != "liveband/band" {
			continue
		}
		if got := float64(row.BandTime); got > budget*rec.NsPerOp {
			return fmt.Errorf("experiments: live-band kernel regressed: %.0f ns/op, over %.2fx the recorded %.0f ns/op (%s, gomaxprocs %d)",
				got, budget, rec.NsPerOp, baselinePath, rec.GoMaxProcs)
		}
		return nil
	}
	return fmt.Errorf("experiments: no liveband/band record in %s to gate against", baselinePath)
}

// BenchRecord is one entry of the machine-readable benchmark trajectory file
// (BENCH_oasis.json): a named measurement with its primary latency and the
// paper's work counters, so the perf history can be tracked across PRs.
type BenchRecord struct {
	// Name identifies the measurement.  Current record families:
	//
	//	fig3/oasis-mem             mean OASIS query time, memory index
	//	sharded/shards=N           sequence-partitioned engine at N shards
	//	sharded/prefix/shards=N    prefix-partitioned subtree sharding at N
	//	                           shards (shared index; columns should stay
	//	                           ~flat vs the 1-shard baseline)
	//	liveband/band              banded DP kernel on the Figure-4 workload
	//	liveband/ref-kernel        (historical) a removed second kernel's
	//	                           time on the same band
	//	liveband/full-sweep        exhaustive-sweep ablation of the same
	//	batch/...                  warm batch engine vs per-query setup
	Name string `json:"name"`
	// NsPerOp is the mean wall-clock nanoseconds per query.
	NsPerOp float64 `json:"ns_per_op"`
	// ColumnsExpanded / CellsComputed are the summed work counters for the
	// measured run (0 when the measurement does not track them).
	ColumnsExpanded int64 `json:"columns_expanded"`
	CellsComputed   int64 `json:"cells_computed"`
	// Extra carries measurement-specific values (speedups, fractions).
	Extra map[string]float64 `json:"extra,omitempty"`
	// GoMaxProcs records the parallelism the measurement ran under (stamped
	// by WriteBenchJSON), so trajectory tooling can tell a perf regression
	// from a CI runner with fewer cores — wall-clock comparisons are only
	// meaningful between records with matching values.
	GoMaxProcs int `json:"gomaxprocs"`
}

// BenchReport is the top-level BENCH_oasis.json document.
type BenchReport struct {
	// Generated records the configuration the numbers came from.
	Residues   int64         `json:"residues"`
	NumQueries int           `json:"num_queries"`
	EValue     float64       `json:"evalue"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Records    []BenchRecord `json:"records"`
}

// WriteBenchJSON writes the report to path (pretty-printed, trailing
// newline, suitable for checking in).  Every record is stamped with the
// report's GoMaxProcs so individual measurements stay comparable even when
// extracted from the document.
func WriteBenchJSON(path string, report BenchReport) error {
	for i := range report.Records {
		if report.Records[i].GoMaxProcs == 0 {
			report.Records[i].GoMaxProcs = report.GoMaxProcs
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
