package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestOpenLoadSweep(t *testing.T) {
	points, err := OpenLoadSweep([]float64{0.3, 0.85}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	light, heavy := points[0], points[1]
	// Responses grow with load for the fixed-partition policies.
	if heavy.Static4 <= light.Static4 {
		t.Errorf("static response did not grow with load: %v -> %v", light.Static4, heavy.Static4)
	}
	// At heavy load the adaptive partitioning is competitive with the best
	// fixed policy (the point of dynamic space sharing).
	best := heavy.Static4
	if heavy.Hybrid4 < best {
		best = heavy.Hybrid4
	}
	if float64(heavy.Dynamic) > 1.1*float64(best) {
		t.Errorf("dynamic %v not competitive at high load (best fixed %v)", heavy.Dynamic, best)
	}
	if !strings.Contains(LoadTable(points), "E6") {
		t.Error("table header")
	}
}

func TestGangVsRRJobClaims(t *testing.T) {
	cells, err := GangVsRRJob(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	var matmul, stencil GangCell
	for _, c := range cells {
		switch c.App {
		case "matmul":
			matmul = c
		case "stencil":
			stencil = c
		}
	}
	// Loosely-coupled matmul: the disciplines are within 10% of each other.
	mr := float64(matmul.Gang) / float64(matmul.RRJob)
	if mr < 0.9 || mr > 1.1 {
		t.Errorf("matmul gang/rrjob = %.2f, want ~1", mr)
	}
	// Tightly-synchronized stencil: coscheduling wins decisively.
	sr := float64(stencil.Gang) / float64(stencil.RRJob)
	if sr > 0.8 {
		t.Errorf("stencil gang/rrjob = %.2f, want << 1 (coscheduling advantage)", sr)
	}
	if !strings.Contains(GangTable(cells), "E7") {
		t.Error("table header")
	}
}

func TestStencilTopologyClaims(t *testing.T) {
	cells, err := StencilTopology(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 { // 8-node partitions: all four topologies
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		// Synchronized communication makes time-sharing interference much
		// worse than for the paper's workloads: TS at least 2x static.
		if float64(c.TS) < 2*float64(c.Static) {
			t.Errorf("%s: TS %v not >> static %v for the stencil", c.Label, c.TS, c.Static)
		}
	}
	if !strings.Contains(StencilTable(cells), "E8") {
		t.Error("table header")
	}
}

func TestScalabilityClaims(t *testing.T) {
	cells, err := Scalability([]int{16, 32}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	// With load per processor held constant, responses stay within 25% as
	// the machine doubles — no scalability cliff in either policy.
	for _, pair := range [][2]float64{
		{float64(cells[0].Static), float64(cells[1].Static)},
		{float64(cells[0].TS), float64(cells[1].TS)},
	} {
		ratio := pair[1] / pair[0]
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("scaling 16->32 changed response by %.2fx", ratio)
		}
	}
	if !strings.Contains(ScaleTable(cells), "E9") {
		t.Error("table header")
	}
	if !strings.Contains(renderCSV(scaleCols, scaleRows(cells)), "nodes,static_s") {
		t.Error("csv header")
	}
}

func TestScalabilityRejectsBadSize(t *testing.T) {
	if _, err := Scalability([]int{20}, core.Config{}); err == nil {
		t.Error("20 nodes with 8-node partitions should fail")
	}
}

// TestValidateAllMatchesDocumentation: the reproduction certificate is
// green — every claim (including documented divergences) matches what
// EXPERIMENTS.md records.
func TestValidateAllMatchesDocumentation(t *testing.T) {
	claims, err := ValidateAll(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 12 {
		t.Fatalf("only %d claims checked", len(claims))
	}
	for _, c := range claims {
		if !c.OK() {
			t.Errorf("[%s] %s: got %v, documented %v (%s)", c.ID, c.Description, c.Got, c.Expected, c.Detail)
		}
	}
	table := CertificateTable(claims)
	if !strings.Contains(table, "12/12") && !strings.Contains(table, "checks match") {
		t.Errorf("certificate table malformed:\n%s", table)
	}
}

func TestBroadcastAblationClaims(t *testing.T) {
	cells, err := BroadcastAblation(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		// The binomial tree must clearly beat 15 serial sends from the root.
		if float64(c.Tree) > 0.85*float64(c.Seq) {
			t.Errorf("%s: tree %v not clearly faster than sequential %v", c.Label, c.Tree, c.Seq)
		}
	}
	if !strings.Contains(BroadcastTable(cells), "E10") {
		t.Error("table header")
	}
	if !strings.Contains(renderCSV(broadcastCols, broadcastRows(cells)), "config,sequential_s") {
		t.Error("csv header")
	}
}

func TestSortAlgorithmAblationClaims(t *testing.T) {
	cells, err := SortAlgorithmAblation(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		switch c.Algorithm {
		case "selection":
			// The paper's O(n²) effect: fixed clearly faster.
			if c.PartitionSize == 2 && c.Speedup() < 3 {
				t.Errorf("selection p=2: fixed speedup %.1f, want >= 3", c.Speedup())
			}
		case "mergesort":
			// With O(n log n) work the advantage collapses to ~1x.
			if s := c.Speedup(); s < 0.6 || s > 1.6 {
				t.Errorf("mergesort p=%d: fixed speedup %.1f, want ~1", c.PartitionSize, s)
			}
		}
	}
	if !strings.Contains(SortAlgTable(cells), "E11") {
		t.Error("table header")
	}
	if !strings.Contains(renderCSV(sortAlgCols, sortAlgRows(cells)), "algorithm,partition") {
		t.Error("csv header")
	}
}

func TestCollectiveTopologyClaims(t *testing.T) {
	cells, err := CollectiveTopology(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 { // L, R, M, H, T
		t.Fatalf("cells = %d", len(cells))
	}
	byLabel := map[string]CollectiveCell{}
	for _, c := range cells {
		byLabel[c.Label] = c
	}
	// Butterfly partners are single hops on the hypercube.
	if h := byLabel["8H"]; h.AvgHops != 1.0 {
		t.Errorf("hypercube avg hops = %.2f, want 1.0", h.AvgHops)
	}
	// Hypercube clearly beats the linear array for the lone job.
	if float64(byLabel["8L"].Single) < 1.2*float64(byLabel["8H"].Single) {
		t.Errorf("linear %v not clearly slower than hypercube %v",
			byLabel["8L"].Single, byLabel["8H"].Single)
	}
	// XOR offsets never exceed N/2, so the ring's wraparound cannot help:
	// linear and ring coincide for this traffic.
	if byLabel["8L"].Single != byLabel["8R"].Single {
		t.Errorf("linear %v and ring %v should coincide for butterfly traffic",
			byLabel["8L"].Single, byLabel["8R"].Single)
	}
	if !strings.Contains(CollectiveTable(cells), "E12") {
		t.Error("table header")
	}
	if !strings.Contains(renderCSV(collectiveCols, collectiveRows(cells)), "label,single_s") {
		t.Error("csv header")
	}
}
