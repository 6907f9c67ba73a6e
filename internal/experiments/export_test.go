package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestFigureCSV(t *testing.T) {
	fig := &Figure{
		ID: "Figure X",
		Cells: []Cell{{
			Label: "4M", PartitionSize: 4, Topology: topology.Mesh,
			Static: 2 * sim.Second, StaticBest: sim.Second, StaticWorst: 3 * sim.Second,
			TS: 4 * sim.Second, TSMemBlocked: 500 * sim.Millisecond, TSOverheadFrac: 0.25,
		}},
	}
	csv := fig.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "label,partition,topology") {
		t.Errorf("header = %q", lines[0])
	}
	want := "4M,4,mesh,2.000000,1.000000,3.000000,4.000000,2.0000,0.500000,0.2500"
	if lines[1] != want {
		t.Errorf("row = %q, want %q", lines[1], want)
	}
}

func TestScalarCSVs(t *testing.T) {
	cases := map[string]struct {
		got        string
		wantHeader string
		wantRow    string
	}{
		"variance": {
			got:        renderCSV(varianceCols, varianceRows([]VariancePoint{{CV: 0.5, Static: sim.Second, TS: 2 * sim.Second}})),
			wantHeader: "cv,static_s,ts_s",
			wantRow:    "0.50,1.000000,2.000000",
		},
		"ablation": {
			got:        renderCSV(ablationCols, ablationRows([]AblationCell{{Label: "16L", SAF: sim.Second, WH: sim.Second / 2, SAFBlock: sim.Second * 3}})),
			wantHeader: "label,saf_s,wormhole_s",
			wantRow:    "16L,1.000000,0.500000,3.000000,0.000000",
		},
		"quantum": {
			got:        renderCSV(quantumCols, quantumRows([]QuantumPoint{{Q: 2000, TS: sim.Second, OverheadFrac: 0.1}})),
			wantHeader: "quantum_us,ts_s,overhead_frac",
			wantRow:    "2000,1.000000,0.1000",
		},
		"rr": {
			got:        renderCSV(rrCols, rrRows(&RRComparisonResult{RRJobSmall: sim.Second, RRJobBig: sim.Second, RRProcSmall: 2 * sim.Second, RRProcBig: sim.Second / 2})),
			wantHeader: "policy,narrow_s,wide_s",
			wantRow:    "rr-job,1.000000,1.000000",
		},
		"mpl": {
			got:        renderCSV(mplCols, mplRows([]MPLPoint{{MaxResident: 2, Mean: sim.Second, MemBlocked: 0}})),
			wantHeader: "mpl,ts_s,mem_blocked_s",
			wantRow:    "2,1.000000,0.000000",
		},
		"load": {
			got:        renderCSV(loadCols, loadRows([]LoadPoint{{Rho: 0.5, Static4: sim.Second, Hybrid4: sim.Second, Dynamic: sim.Second}})),
			wantHeader: "rho,static4_s,hybrid4_s,dynamic_s",
			wantRow:    "0.50,1.000000,1.000000,1.000000",
		},
		"gang": {
			got:        renderCSV(gangCols, gangRows([]GangCell{{App: "stencil", RRJob: 2 * sim.Second, Gang: sim.Second, RRJobOvh: 0.5, GangOverhead: 0.25}})),
			wantHeader: "app,rrjob_s,gang_s",
			wantRow:    "stencil,2.000000,1.000000,0.5000,0.2500",
		},
		"stencil": {
			got:        renderCSV(stencilCols, stencilRows([]StencilCell{{Label: "8L", Static: sim.Second, TS: 3 * sim.Second, TSAvgLat: 1500}})),
			wantHeader: "label,static_s,ts_s",
			wantRow:    "8L,1.000000,3.000000,1500",
		},
	}
	for name, c := range cases {
		lines := strings.Split(strings.TrimSpace(c.got), "\n")
		if !strings.HasPrefix(lines[0], c.wantHeader) {
			t.Errorf("%s header = %q", name, lines[0])
		}
		if len(lines) < 2 || lines[1] != c.wantRow {
			t.Errorf("%s row = %q, want %q", name, lines[1], c.wantRow)
		}
	}
}
