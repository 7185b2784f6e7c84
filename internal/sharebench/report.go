package sharebench

import (
	"encoding/json"
	"fmt"
	"io"
)

// MinReadsRatio is the acceptance floor enforced by CheckThresholds on
// gated scenarios: batching must cut disk reads/query at least this
// much versus the no-sharing baseline at high concurrency.
const MinReadsRatio = 2.0

// ModeStats is one sharing configuration's measurements for a
// scenario. Every value is virtual-time deterministic: regenerating
// the report on any machine produces identical numbers.
type ModeStats struct {
	// Mode is "baseline" or "batch".
	Mode string `json:"mode"`
	// QueriesPerSec is virtual throughput: completed queries over the
	// run makespan.
	QueriesPerSec float64 `json:"queries_per_sec"`
	// MakespanMs is the virtual run length in milliseconds.
	MakespanMs float64 `json:"makespan_ms"`
	// DiskRequests counts shared-disk reads issued.
	DiskRequests int64 `json:"disk_requests"`
	// DiskReadsPerQuery is DiskRequests over completed queries — the
	// headline sharing metric.
	DiskReadsPerQuery float64 `json:"disk_reads_per_query"`
	// CacheHitRate is the cluster-wide buffer hit rate.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// ScenarioReport is one workload cell measured in both modes.
type ScenarioReport struct {
	Name       string  `json:"name"`
	Units      int     `json:"units"`
	Queries    int     `json:"queries"`
	ZipfS      float64 `json:"zipf_s"`
	QueueDepth int     `json:"queue_depth"`
	BatchK     int     `json:"batch_k"`
	// Gate marks the cell whose ReadsRatio CheckThresholds enforces.
	Gate bool `json:"gate"`

	Modes []ModeStats `json:"modes"`

	// ReadsRatio is baseline disk reads/query over batch-mode disk
	// reads/query: how many times fewer reads lockstep batching issues.
	ReadsRatio float64 `json:"reads_ratio"`
	// ResultsIdentical reports whether every query returned a
	// bit-identical semantic result in both modes. Sharing that
	// changes any answer is a bug, and CheckThresholds fails on it.
	ResultsIdentical bool `json:"results_identical"`
}

// Report is the BENCH_share.json schema. It deliberately carries no
// environment fields (Go version, CPU count, timestamps): the suite is
// virtual-time deterministic, so the tracked artifact must be
// byte-identical wherever it is regenerated — that is what lets CI cmp
// a fresh run against the checked-in file as a drift gate.
type Report struct {
	// Smoke marks a reduced run (CI); the tracked artifact is a full
	// run with Smoke false.
	Smoke bool `json:"smoke"`
	// BatchK is the lockstep batch width of the batch mode.
	BatchK    int              `json:"batch_k"`
	Scenarios []ScenarioReport `json:"scenarios"`
}

// WriteJSON writes the report as indented JSON, the tracked file's
// format.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CheckThresholds fails loudly when the sharing layer regresses: any
// scenario with diverging results, or a gated scenario whose reads
// ratio falls below minRatio.
func (r *Report) CheckThresholds(minRatio float64) error {
	if len(r.Scenarios) == 0 {
		return fmt.Errorf("sharebench: report has no scenarios")
	}
	gated := 0
	for _, sc := range r.Scenarios {
		if !sc.ResultsIdentical {
			return fmt.Errorf("sharebench: %s: query results diverge across sharing modes", sc.Name)
		}
		if !sc.Gate {
			continue
		}
		gated++
		if sc.ReadsRatio < minRatio {
			return fmt.Errorf("sharebench: %s: batching cut disk reads only %.2fx, want >= %.1fx",
				sc.Name, sc.ReadsRatio, minRatio)
		}
	}
	if gated == 0 {
		return fmt.Errorf("sharebench: no gated scenario in report")
	}
	return nil
}
