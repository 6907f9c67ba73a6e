package experiments

import "repro/internal/metrics"

// CSV and JSON exporters for every figure and extension sweep. Each
// experiment declares its header columns and typed row cells exactly once;
// the two renderings share the row feed, so a column added to the CSV is in
// the JSON by construction. Formatting and escaping live in the shared
// row-writers (render.go). Times are in seconds.

// rowWriter is what the two document writers (csvWriter, jsonWriter) have
// in common: a typed-cell row sink.
type rowWriter interface {
	row(cells ...any)
}

// renderCSV and renderJSON materialize one experiment export: the same
// column list and row feed through whichever writer the caller picked.
func renderCSV(cols []string, feed func(rowWriter)) string {
	w := newCSV(cols...)
	feed(w)
	return w.String()
}

func renderJSON(cols []string, feed func(rowWriter)) string {
	w := newJSON(cols...)
	feed(w)
	return w.String()
}

var figureCols = []string{"label", "partition", "topology", "static_avg_s", "static_best_s",
	"static_worst_s", "ts_s", "ts_over_static", "ts_mem_blocked_s", "ts_overhead_frac"}

func figureRows(f *Figure) func(rowWriter) {
	return func(w rowWriter) {
		for _, c := range f.Cells {
			w.row(c.Label, c.PartitionSize, c.Topology,
				secs(c.Static), secs(c.StaticBest), secs(c.StaticWorst),
				secs(c.TS), fix4(c.Ratio()), secs(c.TSMemBlocked), fix4(c.TSOverheadFrac))
		}
	}
}

// CSV renders the figure as comma-separated values (one row per cell) for
// plotting outside the harness.
func (f *Figure) CSV() string { return renderCSV(figureCols, figureRows(f)) }

var varianceCols = []string{"cv", "static_s", "ts_s"}

func varianceRows(points []VariancePoint) func(rowWriter) {
	return func(w rowWriter) {
		for _, p := range points {
			w.row(fix2(p.CV), secs(p.Static), secs(p.TS))
		}
	}
}

var ablationCols = []string{"label", "saf_s", "wormhole_s", "saf_mem_blocked_s", "wh_mem_blocked_s"}

func ablationRows(cells []AblationCell) func(rowWriter) {
	return func(w rowWriter) {
		for _, c := range cells {
			w.row(c.Label, secs(c.SAF), secs(c.WH), secs(c.SAFBlock), secs(c.WHBlock))
		}
	}
}

var quantumCols = []string{"quantum_us", "ts_s", "overhead_frac"}

func quantumRows(points []QuantumPoint) func(rowWriter) {
	return func(w rowWriter) {
		for _, p := range points {
			w.row(int64(p.Q), secs(p.TS), fix4(p.OverheadFrac))
		}
	}
}

var rrCols = []string{"policy", "narrow_s", "wide_s"}

func rrRows(r *RRComparisonResult) func(rowWriter) {
	return func(w rowWriter) {
		w.row("rr-job", secs(r.RRJobSmall), secs(r.RRJobBig))
		w.row("rr-process", secs(r.RRProcSmall), secs(r.RRProcBig))
	}
}

var mplCols = []string{"mpl", "ts_s", "mem_blocked_s"}

func mplRows(points []MPLPoint) func(rowWriter) {
	return func(w rowWriter) {
		for _, p := range points {
			w.row(p.MaxResident, secs(p.Mean), secs(p.MemBlocked))
		}
	}
}

var loadCols = []string{"rho", "static4_s", "hybrid4_s", "dynamic_s"}

func loadRows(points []LoadPoint) func(rowWriter) {
	return func(w rowWriter) {
		for _, p := range points {
			w.row(fix2(p.Rho), secs(p.Static4), secs(p.Hybrid4), secs(p.Dynamic))
		}
	}
}

var gangCols = []string{"app", "rrjob_s", "gang_s", "rrjob_overhead", "gang_overhead"}

func gangRows(cells []GangCell) func(rowWriter) {
	return func(w rowWriter) {
		for _, c := range cells {
			w.row(c.App, secs(c.RRJob), secs(c.Gang), fix4(c.RRJobOvh), fix4(c.GangOverhead))
		}
	}
}

var stencilCols = []string{"label", "static_s", "ts_s", "ts_avg_msg_latency_us"}

func stencilRows(cells []StencilCell) func(rowWriter) {
	return func(w rowWriter) {
		for _, c := range cells {
			w.row(c.Label, secs(c.Static), secs(c.TS), int64(c.TSAvgLat))
		}
	}
}

var scaleCols = []string{"nodes", "static_s", "ts_s", "ts_mem_blocked_s", "ts_overhead_frac"}

func scaleRows(cells []ScaleCell) func(rowWriter) {
	return func(w rowWriter) {
		for _, c := range cells {
			w.row(c.Machine, secs(c.Static), secs(c.TS), secs(c.TSMemBlock), fix4(c.TSOverhead))
		}
	}
}

var broadcastCols = []string{"config", "sequential_s", "tree_s"}

func broadcastRows(cells []BroadcastCell) func(rowWriter) {
	return func(w rowWriter) {
		for _, c := range cells {
			w.row(c.Label, secs(c.Seq), secs(c.Tree))
		}
	}
}

var sortAlgCols = []string{"algorithm", "partition", "fixed_s", "adaptive_s"}

func sortAlgRows(cells []SortAlgCell) func(rowWriter) {
	return func(w rowWriter) {
		for _, c := range cells {
			w.row(c.Algorithm, c.PartitionSize, secs(c.Fixed), secs(c.Adaptive))
		}
	}
}

var collectiveCols = []string{"label", "single_s", "ts_s", "avg_hops"}

func collectiveRows(cells []CollectiveCell) func(rowWriter) {
	return func(w rowWriter) {
		for _, c := range cells {
			w.row(c.Label, secs(c.Single), secs(c.TS), fix2(c.AvgHops))
		}
	}
}

var faultCols = []string{"topology", "partition", "policy", "rate_per_node_s", "mtbf_us",
	"mean_s", "makespan_s", "nodes_failed", "job_kills", "requeues", "restarts",
	"checkpoints", "work_lost_s", "retries"}

func (s *FaultStudy) rows(w rowWriter) {
	for _, c := range s.Curves {
		for _, p := range c.Points {
			w.row(s.Topology, s.PartitionSize, c.Policy, p.Rate, int64(p.NodeMTBF),
				secs(p.Mean), secs(p.Makespan),
				p.Faults.NodesFailed, p.Faults.JobKills, p.Faults.Requeues,
				p.Faults.Restarts, p.Faults.Checkpoints, secs(p.Faults.WorkLost), p.Retries)
		}
	}
}

// CSV renders the fault study as rows for plotting.
func (s *FaultStudy) CSV() string { return renderCSV(faultCols, s.rows) }

// JSON renders the fault study as JSON rows.
func (s *FaultStudy) JSON() string { return renderJSON(faultCols, s.rows) }

// FaultStudiesCSV renders several studies as one CSV document (single
// header) — byte-identical to the historical concatenate-and-strip-headers
// output of cmd/faultstudy -csv.
func FaultStudiesCSV(studies []*FaultStudy) string {
	return renderCSV(faultCols, func(w rowWriter) {
		for _, s := range studies {
			s.rows(w)
		}
	})
}

// FaultStudiesJSON renders several studies as one JSON row array.
func FaultStudiesJSON(studies []*FaultStudy) string {
	return renderJSON(faultCols, func(w rowWriter) {
		for _, s := range studies {
			s.rows(w)
		}
	})
}

// Single-run summary: the headline metrics of one core.Run, the body
// schedd serves for config-shaped (non-experiment) requests. Field set and
// rendering mirror cmd/sweep's CSV columns, with percentiles and network
// detail added; all three renderings share one column/cell feed.

var summaryCols = []string{"label", "jobs", "mean_s", "p50_s", "p95_s", "max_s",
	"makespan_s", "util", "overhead", "mem_blocked_s", "peak_mem_bytes",
	"messages", "avg_hops", "avg_latency_us", "retries"}

func summaryCells(res *metrics.Result) []any {
	return []any{
		res.Label,
		len(res.Jobs),
		secs(res.MeanResponse()),
		secs(res.ResponsePercentile(50)),
		secs(res.ResponsePercentile(95)),
		secs(res.MaxResponse()),
		secs(res.Makespan),
		fix4(res.CPUUtilization()),
		fix4(res.SystemOverheadFraction()),
		secs(res.TotalMemBlockedTime()),
		res.PeakMemory(),
		res.Net.Messages,
		fix2(res.Net.AvgHops()),
		int64(res.Net.AvgLatency()),
		res.Net.Retries,
	}
}

// SummaryJSON renders the summary as one flat JSON object.
func SummaryJSON(res *metrics.Result) string {
	o := newJSONObject()
	cells := summaryCells(res)
	for i, col := range summaryCols {
		o.field(col, cells[i])
	}
	return o.String()
}

// SummaryCSV renders the summary as a one-row CSV document.
func SummaryCSV(res *metrics.Result) string {
	w := newCSV(summaryCols...)
	w.row(summaryCells(res)...)
	return w.String()
}

// SummaryTable renders the summary as an aligned name/value text table.
func SummaryTable(res *metrics.Result) string {
	t := newText(res.Label)
	cells := summaryCells(res)
	for i, col := range summaryCols {
		if col == "label" {
			continue
		}
		t.linef("%-16s %s\n", col, csvCell(cells[i]))
	}
	return t.String()
}
