package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestFigureJSONGolden pins the JSON encoding byte-for-byte. schedd serves
// (and caches) these bytes, so the encoding is wire format: a change here
// is a breaking API change, not a cosmetic one.
func TestFigureJSONGolden(t *testing.T) {
	fig := &Figure{
		ID: "Figure X",
		Cells: []Cell{
			{
				Label: "4M", PartitionSize: 4, Topology: topology.Mesh,
				Static: 2 * sim.Second, StaticBest: sim.Second, StaticWorst: 3 * sim.Second,
				TS: 4 * sim.Second, TSMemBlocked: 500 * sim.Millisecond, TSOverheadFrac: 0.25,
			},
			{
				Label: "8L", PartitionSize: 8, Topology: topology.Linear,
				Static: sim.Second, TS: sim.Second / 2,
			},
		},
	}
	const want = `[
  {"label":"4M","partition":4,"topology":"mesh","static_avg_s":2.000000,"static_best_s":1.000000,"static_worst_s":3.000000,"ts_s":4.000000,"ts_over_static":2.0000,"ts_mem_blocked_s":0.500000,"ts_overhead_frac":0.2500},
  {"label":"8L","partition":8,"topology":"linear","static_avg_s":1.000000,"static_best_s":0.000000,"static_worst_s":0.000000,"ts_s":0.500000,"ts_over_static":0.5000,"ts_mem_blocked_s":0.000000,"ts_overhead_frac":0.0000}
]
`
	if got := renderJSON(figureCols, figureRows(fig)); got != want {
		t.Errorf("figure JSON drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestSummaryJSONGolden pins the single-run summary object.
func TestSummaryJSONGolden(t *testing.T) {
	res := &metrics.Result{
		Label: "4M time-shared matmul fixed",
		Jobs: []metrics.JobRecord{
			{JobID: 0, Class: "small", Completed: 2 * sim.Second},
			{JobID: 1, Class: "large", Completed: 4 * sim.Second},
		},
		Makespan: 4 * sim.Second,
	}
	const want = `{
  "label": "4M time-shared matmul fixed",
  "jobs": 2,
  "mean_s": 3.000000,
  "p50_s": 2.000000,
  "p95_s": 4.000000,
  "max_s": 4.000000,
  "makespan_s": 4.000000,
  "util": 0.0000,
  "overhead": 0.0000,
  "mem_blocked_s": 0.000000,
  "peak_mem_bytes": 0,
  "messages": 0,
  "avg_hops": 0.00,
  "avg_latency_us": 0,
  "retries": 0
}
`
	if got := SummaryJSON(res); got != want {
		t.Errorf("SummaryJSON drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestJSONExportersAreValidJSONWithCSVColumns: every JSON exporter yields
// parseable JSON whose objects carry exactly the CSV header's columns, and
// empty inputs render an empty array.
func TestJSONExportersAreValidJSONWithCSVColumns(t *testing.T) {
	cases := map[string]struct {
		cols []string
		rows func(rowWriter)
	}{
		"figure":     {figureCols, figureRows(&Figure{Cells: []Cell{{Label: "1"}}})},
		"variance":   {varianceCols, varianceRows([]VariancePoint{{CV: 0.5, Static: sim.Second, TS: 2 * sim.Second}})},
		"ablation":   {ablationCols, ablationRows([]AblationCell{{Label: "16L"}})},
		"quantum":    {quantumCols, quantumRows([]QuantumPoint{{Q: 2000}})},
		"rr":         {rrCols, rrRows(&RRComparisonResult{})},
		"mpl":        {mplCols, mplRows([]MPLPoint{{MaxResident: 2}})},
		"load":       {loadCols, loadRows([]LoadPoint{{Rho: 0.5}})},
		"gang":       {gangCols, gangRows([]GangCell{{App: "stencil"}})},
		"stencil":    {stencilCols, stencilRows([]StencilCell{{Label: "8L"}})},
		"scale":      {scaleCols, scaleRows([]ScaleCell{{Machine: 16}})},
		"broadcast":  {broadcastCols, broadcastRows([]BroadcastCell{{Label: "16M"}})},
		"sortalg":    {sortAlgCols, sortAlgRows([]SortAlgCell{{Algorithm: "merge"}})},
		"collective": {collectiveCols, collectiveRows([]CollectiveCell{{Label: "16M"}})},
		"zoo":        {zooCols, zooRows([]ZooCell{{Label: "equi"}})},
		"open":       {openCols, openRows([]OpenCell{{Label: "static", Load: 0.5}})},
	}
	for name, c := range cases {
		jsonDoc, csvDoc := renderJSON(c.cols, c.rows), renderCSV(c.cols, c.rows)
		var rows []map[string]any
		if err := json.Unmarshal([]byte(jsonDoc), &rows); err != nil {
			t.Errorf("%s: invalid JSON: %v\n%s", name, err, jsonDoc)
			continue
		}
		if len(rows) == 0 {
			t.Errorf("%s: no rows", name)
			continue
		}
		header := strings.Split(strings.SplitN(strings.TrimSpace(csvDoc), "\n", 2)[0], ",")
		if len(rows[0]) != len(header) {
			t.Errorf("%s: JSON row has %d fields, CSV header has %d", name, len(rows[0]), len(header))
		}
		for _, col := range header {
			if _, ok := rows[0][col]; !ok {
				t.Errorf("%s: JSON row missing CSV column %q", name, col)
			}
		}
	}
}

// TestJSONEmptyInput: zero rows render a bare empty array, still valid.
func TestJSONEmptyInput(t *testing.T) {
	got := renderJSON(varianceCols, varianceRows(nil))
	if got != "[]\n" {
		t.Errorf("empty export = %q, want %q", got, "[]\n")
	}
	var rows []map[string]any
	if err := json.Unmarshal([]byte(got), &rows); err != nil {
		t.Errorf("empty export invalid: %v", err)
	}
}
