package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallCfg shrinks the workload so core tests run in milliseconds.
func smallCfg() Config {
	ac := workload.DefaultAppCost()
	return Config{
		PartitionSize: 4,
		Topology:      topology.Mesh,
		Policy:        sched.TimeShared,
		App:           MatMul,
		Arch:          workload.Adaptive,
		AppCost:       &ac,
		Batch: workload.BatchSpec{
			Small: 3, Large: 1, Arch: workload.Adaptive,
			NewApp: func(class string) workload.App {
				n := 16
				if class == "large" {
					n = 32
				}
				return workload.NewMatMul(n, workload.DefaultAppCost(), false)
			},
		}.Build(),
	}
}

func TestAppKindParsing(t *testing.T) {
	for s, want := range map[string]AppKind{"matmul": MatMul, "mm": MatMul, "sort": Sort} {
		got, err := ParseApp(s)
		if err != nil || got != want {
			t.Errorf("ParseApp(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseApp("raytrace"); err == nil {
		t.Error("bad app should fail")
	}
	if MatMul.String() != "matmul" || Sort.String() != "sort" {
		t.Error("app strings")
	}
}

func TestOrderString(t *testing.T) {
	if Submission.String() != "submission" || SmallestFirst.String() != "smallest-first" || LargestFirst.String() != "largest-first" {
		t.Error("order strings")
	}
}

func TestRunSmoke(t *testing.T) {
	res, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	if res.MeanResponse() <= 0 || res.Makespan <= 0 {
		t.Errorf("degenerate result: %v", res)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanResponse() != b.MeanResponse() || a.Makespan != b.Makespan {
		t.Errorf("runs differ: %v vs %v", a, b)
	}
}

func TestDefaultsAreThePaperSystem(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Processors != 16 {
		t.Errorf("processors = %d", c.Processors)
	}
	if c.MemoryBytes != 4<<20 {
		t.Errorf("memory = %d", c.MemoryBytes)
	}
	if c.PartitionSize != 16 {
		t.Errorf("partition = %d", c.PartitionSize)
	}
	if c.Cost == nil || c.AppCost == nil {
		t.Error("cost models not defaulted")
	}
	if c.Mode != comm.StoreForward {
		t.Error("default mode should be store-and-forward")
	}
}

func TestLabel(t *testing.T) {
	cfg := smallCfg()
	label := cfg.Label()
	for _, want := range []string{"4M", "time-shared", "matmul", "adaptive"} {
		if !strings.Contains(label, want) {
			t.Errorf("label %q missing %q", label, want)
		}
	}
}

func TestStaticAveraged(t *testing.T) {
	cfg := smallCfg()
	mean, best, worst, err := StaticAveraged(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best.MeanResponse() > worst.MeanResponse() {
		t.Errorf("best %v > worst %v", best.MeanResponse(), worst.MeanResponse())
	}
	want := (best.MeanResponse() + worst.MeanResponse()) / 2
	if mean != want {
		t.Errorf("mean = %v, want %v", mean, want)
	}
}

func TestRunInvalidConfig(t *testing.T) {
	cfg := smallCfg()
	cfg.PartitionSize = 3 // does not divide 16
	if _, err := Run(cfg); err == nil {
		t.Error("expected error")
	}
	cfg = smallCfg()
	cfg.PartitionSize = 6
	cfg.Topology = topology.Hypercube
	if _, err := Run(cfg); err == nil {
		t.Error("non-power-of-two hypercube partition should fail")
	}
}

func TestGeneratedBatches(t *testing.T) {
	for _, app := range []AppKind{MatMul, Sort} {
		cfg := Config{App: app}.withDefaults()
		batch := cfg.buildBatch()
		if len(batch) != 16 {
			t.Errorf("%v batch = %d jobs", app, len(batch))
		}
		name := batch[0].App.Name()
		if (app == MatMul && name != "matmul") || (app == Sort && name != "sort") {
			t.Errorf("%v batch built %q", app, name)
		}
	}
}

func TestOrderAppliesToCustomBatch(t *testing.T) {
	cfg := smallCfg()
	cfg.Order = LargestFirst
	batch := cfg.buildBatch()
	if batch[0].Class != "large" {
		t.Errorf("largest-first custom batch starts with %s", batch[0].Class)
	}
	// The original slice must be untouched.
	if cfg.Batch[0].Class != "small" {
		t.Error("ordering mutated the caller's batch")
	}
}

func TestMaxResidentThreadsThrough(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxResident = 1
	res1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxResident = 0
	resAll, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// MaxResident=1 serializes jobs per partition, so the makespan can only
	// grow or stay equal.
	if res1.Makespan < resAll.Makespan {
		t.Errorf("MPL=1 makespan %v < unlimited %v", res1.Makespan, resAll.Makespan)
	}
}

// TestVerifiedPaperWorkloadSmall runs real-data verification through the
// whole stack (core -> sched -> comm -> machine) at miniature sizes.
func TestVerifiedPaperWorkloadSmall(t *testing.T) {
	batch := workload.BatchSpec{
		Small: 3, Large: 1, Arch: workload.Fixed,
		NewApp: func(class string) workload.App {
			n := 40
			if class == "large" {
				n = 120
			}
			return workload.NewSort(n, workload.DefaultAppCost(), true)
		},
	}.Build()
	cfg := Config{
		PartitionSize: 8,
		Topology:      topology.Hypercube,
		Policy:        sched.TimeShared,
		Batch:         batch,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, j := range batch {
		if !j.App.(*workload.Sort).Checked {
			t.Errorf("job %d not verified", j.ID)
		}
	}
}

func TestWormholeModeThreadsThrough(t *testing.T) {
	cfg := smallCfg()
	saf, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = comm.Wormhole
	wh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if saf.Net.Messages != wh.Net.Messages {
		t.Errorf("message counts differ: %d vs %d", saf.Net.Messages, wh.Net.Messages)
	}
	if wh.MeanResponse() >= saf.MeanResponse() {
		t.Errorf("wormhole %v not faster than SAF %v", wh.MeanResponse(), saf.MeanResponse())
	}
}

func TestBasicQuantumThreadsThrough(t *testing.T) {
	cfg := smallCfg()
	// One partition so the four jobs actually share processors and the
	// job-switch rate depends on the quantum.
	cfg.PartitionSize = 16
	cfg.BasicQuantum = 500 * sim.Microsecond
	fine, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BasicQuantum = 50 * sim.Millisecond
	coarse, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Finer quanta mean more job switches.
	fineSwitch := fine.SystemOverheadFraction()
	coarseSwitch := coarse.SystemOverheadFraction()
	if fineSwitch <= coarseSwitch {
		t.Errorf("fine-quantum overhead %.3f not above coarse %.3f", fineSwitch, coarseSwitch)
	}
}

func TestSampleEveryProducesTimeline(t *testing.T) {
	cfg := smallCfg()
	cfg.SampleEvery = 5 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no samples collected")
	}
	// Samples are spaced by the interval and cover the run.
	for i, s := range res.Timeline {
		if want := sim.Time(i+1) * cfg.SampleEvery; s.At != want {
			t.Fatalf("sample %d at %v, want %v", i, s.At, want)
		}
		if s.Busy() < 0 || s.Busy() > 1.001 {
			t.Errorf("sample %d busy = %v out of range", i, s.Busy())
		}
		if s.MemUsed < 0 {
			t.Errorf("sample %d mem = %d", i, s.MemUsed)
		}
	}
	last := res.Timeline[len(res.Timeline)-1].At
	if last < res.Makespan {
		t.Errorf("last sample %v before makespan %v", last, res.Makespan)
	}
	// Mid-run samples see jobs running.
	sawRunning := false
	for _, s := range res.Timeline {
		if s.JobsRunning > 0 {
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Error("no sample observed running jobs")
	}
	// Disabled sampling leaves Timeline nil.
	cfg.SampleEvery = 0
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Timeline != nil {
		t.Error("sampling should be off by default")
	}
}

// tracedRunSHA256 is the sha256 of the event log TestTracedRunBytesPinned
// writes. Tracing is opt-in and call sites format only when a tracer is
// installed, so any change to this hash is a change to what a traced run
// reports, not a side effect of making untraced runs cheaper.
const tracedRunSHA256 = "44976b4cc7d51ac1a3c9436b2d85da14df623140f7ac4efc575ad1863f60be62"

// TestTracedRunBytesPinned: a small traced closed run (4-node mesh
// partitions, time-shared, matmul) emits job, load and msg events, and the
// text of its log is byte-for-byte pinned.
func TestTracedRunBytesPinned(t *testing.T) {
	var log trace.Log
	cfg := smallCfg()
	cfg.Tracer = &log
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"job", "load", "msg"} {
		if len(log.Filter(cat)) == 0 {
			t.Errorf("no %q events traced", cat)
		}
	}
	h := sha256.New()
	if _, err := log.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != tracedRunSHA256 {
		t.Errorf("traced log sha256 = %s, want %s (%d events)", got, tracedRunSHA256, log.Len())
	}
}
