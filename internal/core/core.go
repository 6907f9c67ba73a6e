// Package core is the public façade of the reproduction: one-call
// construction and execution of the paper's experiments. A Config names a
// machine shape, a scheduling policy, a workload and a software
// architecture; Run builds the full simulated system (kernel, 16-node
// machine, partition networks, scheduler hierarchy, batch) and returns the
// measured metrics.Result.
//
// Quickstart:
//
//	res, err := core.Run(core.Config{
//	    PartitionSize: 4,
//	    Topology:      topology.Mesh,
//	    Policy:        sched.TimeShared,
//	    App:           core.MatMul,
//	    Arch:          workload.Fixed,
//	})
//	fmt.Println(res.MeanResponse())
package core

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// AppKind selects the paper workload.
type AppKind int

const (
	// MatMul is the fork-and-join matrix multiplication (§4.1).
	MatMul AppKind = iota
	// Sort is the divide-and-conquer selection sort (§4.2).
	Sort
	// Stencil is the extension workload: iterative Jacobi relaxation with
	// per-sweep halo exchange — the communication-intensive counterpart.
	Stencil
)

func (a AppKind) String() string {
	switch a {
	case Sort:
		return "sort"
	case Stencil:
		return "stencil"
	default:
		return "matmul"
	}
}

// ParseApp parses "matmul", "sort" or "stencil".
func ParseApp(s string) (AppKind, error) {
	switch s {
	case "matmul", "mm":
		return MatMul, nil
	case "sort":
		return Sort, nil
	case "stencil", "jacobi":
		return Stencil, nil
	}
	return 0, fmt.Errorf("core: unknown app %q", s)
}

// Order is the submission order of the batch, which matters only to the
// static policy (run-to-completion).
type Order int

const (
	// Submission keeps the batch's interleaved order.
	Submission Order = iota
	// SmallestFirst is the static policy's best case.
	SmallestFirst
	// LargestFirst is the static policy's worst case.
	LargestFirst
)

func (o Order) String() string {
	switch o {
	case SmallestFirst:
		return "smallest-first"
	case LargestFirst:
		return "largest-first"
	default:
		return "submission"
	}
}

// ParseOrder parses a batch order: "submission" ("sub"), "smallest-first"
// ("sf") or "largest-first" ("lf").
func ParseOrder(s string) (Order, error) {
	switch s {
	case "submission", "sub":
		return Submission, nil
	case "smallest-first", "sf":
		return SmallestFirst, nil
	case "largest-first", "lf":
		return LargestFirst, nil
	}
	return 0, fmt.Errorf("core: unknown batch order %q (valid: submission, smallest-first, largest-first)", s)
}

// Config selects one experimental configuration. Zero values default to the
// paper's system: 16 processors, 4 MB nodes, store-and-forward switching,
// the default cost models, and the hardware basic quantum.
type Config struct {
	// Processors is the machine size (paper: 16).
	Processors int
	// MemoryBytes is per-node memory (paper: 4 MB).
	MemoryBytes int64
	// PartitionSize p gives Processors/p equal partitions.
	PartitionSize int
	// Topology is the per-partition interconnect.
	Topology topology.Kind
	// Policy is the scheduling discipline: one of the five built-in
	// composites of the three policy components.
	Policy sched.Policy
	// PartitionPolicy, QuantumPolicy and QueueOrder override individual
	// policy components (see package sched); zero values inherit the
	// component from Policy, so a config that sets none of them behaves —
	// and hashes — exactly as before these fields existed.
	PartitionPolicy sched.PartitionKind
	QuantumPolicy   sched.QuantumKind
	QueueOrder      sched.OrderKind
	// App and Arch pick the workload.
	App  AppKind
	Arch workload.Arch
	// Mode is the switching discipline.
	Mode comm.Mode
	// BasicQuantum is q in the RR-job rule Q = (P/T)q; zero uses the
	// hardware quantum.
	BasicQuantum sim.Time
	// Cost and AppCost calibrate the hardware and the applications; zero
	// values take the defaults.
	Cost    *machine.CostModel
	AppCost *workload.AppCost
	// Order permutes the batch before submission.
	Order Order
	// Verify makes applications carry real data (slow; for tests).
	Verify bool
	// Seed drives the deterministic kernel.
	Seed int64
	// Batch overrides the generated paper batch when non-nil.
	Batch workload.Batch
	// MaxResident bounds jobs per partition for the time-sharing policies
	// (0 = all admitted, the paper's setting). Used by the MPL-tuning
	// extension experiment.
	MaxResident int
	// Fault, when non-nil, enables fault injection and the recovery
	// machinery (message retry, checkpoint/restart, scheduler repair). A
	// zero-valued config is inert and reproduces fault-free results exactly.
	Fault *fault.Config
	// Tracer, when non-nil, records job and message events for inspection.
	Tracer trace.Tracer
	// SampleEvery enables periodic utilization sampling at this interval;
	// the samples land in Result.Timeline. Zero disables sampling.
	SampleEvery sim.Time
	// Arrival switches the run from the paper's closed batch to an
	// open-system arrival stream (see package arrival). The zero value is
	// the closed batch, behaving — and hashing — exactly as before this
	// field existed; a non-zero spec replaces the batch with streamed jobs
	// and Result.Open with bounded-memory response statistics.
	Arrival arrival.Spec
}

// withDefaults fills in the paper's standard values.
func (c Config) withDefaults() Config {
	if c.Processors == 0 {
		c.Processors = 16
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = mem.NodeMemory
	}
	if c.PartitionSize == 0 {
		c.PartitionSize = c.Processors
	}
	if c.Cost == nil {
		cm := machine.DefaultCostModel()
		c.Cost = &cm
	}
	if c.AppCost == nil {
		ac := workload.DefaultAppCost()
		c.AppCost = &ac
	}
	c.Arrival = c.Arrival.WithDefaults()
	// Open-system streams need admission control: with an unbounded
	// multiprogramming level a deep enough queue loads more resident job
	// images than node memory holds and the run deadlocks on allocation
	// waiters. The paper's "all admitted" setting is safe only for its
	// 16-job closed batches, so open runs default to a finite MPL.
	if !c.Arrival.IsZero() && c.MaxResident == 0 {
		c.MaxResident = openMaxResident
	}
	return c
}

// openMaxResident is the default per-partition multiprogramming level for
// open-system runs: 16 resident jobs × ~90KB of per-node image footprint
// stays an order of magnitude under the 4MB node memory.
const openMaxResident = 16

// Label renders the figure label of this configuration ("8L static" etc.).
// The policy renders as its resolved spec: the legacy name for the built-in
// composites, the partition/quantum/order triple for zoo compositions.
func (c Config) Label() string {
	c = c.withDefaults()
	g := topology.MustBuild(c.Topology, c.PartitionSize)
	return fmt.Sprintf("%s %s %s %s", g.Label(), c.PolicyLabel(), c.App, c.Arch)
}

// PolicyLabel renders the effective scheduling discipline canonically. An
// unresolvable spec falls back to the legacy policy name (Run will reject
// it with a proper error).
func (c Config) PolicyLabel() string {
	spec, err := sched.ResolveSpec(c.Policy, c.PartitionPolicy, c.QuantumPolicy, c.QueueOrder)
	if err != nil {
		return c.Policy.String()
	}
	return spec.String()
}

// buildBatch constructs the batch for the configuration. Order applies to
// custom batches too, so StaticAveraged works with them.
func (c Config) buildBatch() workload.Batch {
	batch := c.Batch
	if batch == nil {
		switch c.App {
		case Sort:
			batch = workload.SortBatch(c.Arch, *c.AppCost, c.Verify)
		case Stencil:
			batch = workload.StencilBatch(c.Arch, *c.AppCost, c.Verify)
		default:
			batch = workload.MatMulBatch(c.Arch, *c.AppCost, c.Verify)
		}
	}
	switch c.Order {
	case SmallestFirst:
		batch = batch.SmallestFirst()
	case LargestFirst:
		batch = batch.LargestFirst()
	}
	return batch
}

// Run executes one batch under the configuration and returns the result.
// The simulation is fully deterministic for a given Config.
func Run(cfg Config) (*metrics.Result, error) {
	cfg = cfg.withDefaults()
	if !cfg.Arrival.IsZero() {
		return runOpen(cfg)
	}
	r, err := newRun(cfg, 0)
	if err != nil {
		return nil, err
	}
	defer r.k.Shutdown()
	r.armFirstSample()
	if err := r.sys.Submit(r.batch); err != nil {
		return nil, err
	}
	return r.finish()
}

// run is one simulation in flight: the kernel, machine, scheduling system
// and optional utilization sampler, bundled so the plain, cold-fork,
// warm-donor and warm-resume paths (see fork.go) share one construction
// sequence — byte-identical results depend on identical construction order.
type run struct {
	cfg      Config // defaults applied
	k        *sim.Kernel
	mach     *machine.Machine
	sys      *sched.System
	smp      *sampler
	batch    workload.Batch
	timeline metrics.Timeline
}

// newRun builds the simulated system. resumeFrom is zero except on a
// warm-start restore, where it tells the scheduler which fault-plan events
// the donor run already consumed. Construction-time events (router daemons
// parking) are settled so the clock can later be positioned past them; a
// cold run would fire them first anyway.
func newRun(cfg Config, resumeFrom sim.Time) (*run, error) {
	if cfg.Processors < 1 {
		return nil, &ConfigError{Field: "processors", Err: fmt.Errorf("core: machine needs at least one processor, got %d", cfg.Processors)}
	}
	if cfg.MemoryBytes < 1 {
		return nil, &ConfigError{Field: "memory_bytes", Err: fmt.Errorf("core: per-node memory must be positive, got %d bytes", cfg.MemoryBytes)}
	}
	k := sim.NewKernel(cfg.Seed)
	mach := machine.NewMachine(k, cfg.Processors, cfg.MemoryBytes, *cfg.Cost)
	sys, err := sched.New(sched.Config{
		Machine:         mach,
		PartitionSize:   cfg.PartitionSize,
		Topology:        cfg.Topology,
		Mode:            cfg.Mode,
		Policy:          cfg.Policy,
		PartitionPolicy: cfg.PartitionPolicy,
		QuantumPolicy:   cfg.QuantumPolicy,
		QueueOrder:      cfg.QueueOrder,
		BasicQuantum:    cfg.BasicQuantum,
		MaxResident:     cfg.MaxResident,
		Fault:           cfg.Fault,
		Tracer:          cfg.Tracer,
		ResumeFrom:      resumeFrom,
	})
	if err != nil {
		k.Shutdown()
		return nil, wrapConfigErr(err)
	}
	r := &run{cfg: cfg, k: k, mach: mach, sys: sys}
	if cfg.Arrival.IsZero() {
		r.batch = cfg.buildBatch()
	}
	if cfg.SampleEvery > 0 {
		r.smp = newSampler(k, mach, sys, cfg, &r.timeline)
	}
	k.RunUntil(0)
	return r, nil
}

// armFirstSample schedules the sampler's first tick; it must run before
// submission, exactly where installSampler sat historically, so event
// sequence numbers — and with them every same-instant tie — are unchanged.
func (r *run) armFirstSample() {
	if r.smp != nil {
		r.smp.armAt(r.cfg.SampleEvery)
	}
}

// finish runs the submitted simulation to completion and labels the result.
func (r *run) finish() (*metrics.Result, error) {
	res, err := r.sys.Finish()
	if err != nil {
		return nil, err
	}
	res.Label = r.cfg.Label()
	res.Timeline = r.timeline
	return res, nil
}

// sampler is the periodic utilization probe: a kernel event that snapshots
// machine-wide busy-time deltas and memory footprint until the batch
// completes. It is a struct (not a closure) so warm-state forking can
// capture and restore its accumulator state.
type sampler struct {
	k     *sim.Kernel
	mach  *machine.Machine
	sys   *sched.System
	every sim.Time
	denom float64
	out   *metrics.Timeline
	// open bounds the timeline on open-system runs: past openTimelineCap
	// samples the series pair-merges and the interval doubles, keeping
	// memory flat over any stream length (closed batches never decimate,
	// preserving historical timelines byte-for-byte).
	open bool

	prevLow, prevHigh, prevSwitch sim.Time
	// nextAt is the pending tick's activation time; zero once the sampler
	// has stopped re-arming (batch complete).
	nextAt sim.Time
}

func newSampler(k *sim.Kernel, mach *machine.Machine, sys *sched.System, cfg Config, out *metrics.Timeline) *sampler {
	return &sampler{
		k:     k,
		mach:  mach,
		sys:   sys,
		every: cfg.SampleEvery,
		denom: float64(cfg.SampleEvery) * float64(cfg.Processors),
		out:   out,
		open:  !cfg.Arrival.IsZero(),
	}
}

// armAt schedules the next tick at an absolute time.
func (sp *sampler) armAt(at sim.Time) {
	sp.nextAt = at
	sp.k.AtFunc(at, sp.fire)
}

func (sp *sampler) fire() {
	var low, high, sw sim.Time
	var mem int64
	for _, n := range sp.mach.Nodes {
		cs := n.CPU.Stats()
		low += cs.BusyLow
		high += cs.BusyHigh
		sw += cs.BusySwitch
		mem += n.Mem.Used()
	}
	*sp.out = append(*sp.out, metrics.Sample{
		At:          sp.k.Now(),
		BusyLow:     float64(low-sp.prevLow) / sp.denom,
		BusyHigh:    float64(high-sp.prevHigh) / sp.denom,
		BusySwitch:  float64(sw-sp.prevSwitch) / sp.denom,
		MemUsed:     mem,
		JobsRunning: sp.sys.Running(),
	})
	sp.prevLow, sp.prevHigh, sp.prevSwitch = low, high, sw
	if sp.open && len(*sp.out) >= openTimelineCap {
		sp.decimate()
	}
	if sp.sys.Remaining() > 0 || sp.sys.StreamPending() {
		sp.armAt(sp.k.Now() + sp.every)
	} else {
		sp.nextAt = 0
	}
}

// openTimelineCap bounds an open run's utilization timeline.
const openTimelineCap = 4096

// decimate pair-merges the timeline and doubles the sampling interval:
// adjacent samples average their rates (each covered one old interval) and
// the later sample's instantaneous fields win.
func (sp *sampler) decimate() {
	tl := *sp.out
	n := len(tl) / 2
	for i := 0; i < n; i++ {
		a, b := tl[2*i], tl[2*i+1]
		tl[i] = metrics.Sample{
			At:          b.At,
			BusyLow:     (a.BusyLow + b.BusyLow) / 2,
			BusyHigh:    (a.BusyHigh + b.BusyHigh) / 2,
			BusySwitch:  (a.BusySwitch + b.BusySwitch) / 2,
			MemUsed:     b.MemUsed,
			JobsRunning: b.JobsRunning,
		}
	}
	if 2*n < len(tl) {
		tl[n] = tl[len(tl)-1]
		n++
	}
	*sp.out = tl[:n]
	sp.every *= 2
	sp.denom *= 2
}

// StaticAveraged runs the static policy in its best (smallest-first) and
// worst (largest-first) orders and returns both results plus the averaged
// mean response time — exactly the fairness convention of §5.1.
func StaticAveraged(cfg Config) (mean sim.Time, best, worst *metrics.Result, err error) {
	cfg.Policy = sched.Static
	cfg.Order = SmallestFirst
	best, err = Run(cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	cfg.Order = LargestFirst
	worst, err = Run(cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	return metrics.MeanOf(best, worst), best, worst, nil
}
