package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ---------------------------------------------------------------------------
// E14 — the policy zoo vs the paper's disciplines
//
// The paper compares three disciplines (static space-sharing, the RR-job
// hybrid, dynamic space-sharing) plus the RR-process and gang baselines.
// The pluggable policy framework composes their components freely; this
// experiment lines the interesting compositions up against all five legacy
// disciplines on the same closed batch: the RR-job hybrid with dynamic
// per-group quanta, static partitioning draining its queue shortest-
// remaining-first, and malleable equipartitioning that resizes running
// jobs as the load changes.

// ZooCell is one discipline's outcome on the shared closed batch.
type ZooCell struct {
	Label          string
	Mean           sim.Time
	P95            sim.Time
	Makespan       sim.Time
	Util, Overhead float64
}

// PolicyZoo is extension experiment E14. Every row runs the same batch on
// the same machine; only the scheduling discipline differs. Partition-pool
// disciplines (dynamic, equi) run with uncapped block sizes, as the legacy
// sweep tools always ran them.
func PolicyZoo(base core.Config, opts ...engine.Options) ([]ZooCell, error) {
	if base.PartitionSize == 0 {
		base.PartitionSize = 4
	}
	if base.Topology == 0 {
		base.Topology = topology.Mesh
	}
	type contender struct {
		pol   sched.Policy
		part  sched.PartitionKind
		quant sched.QuantumKind
		order sched.OrderKind
		free  bool // partition pool: uncap the block size
	}
	contenders := []contender{
		{pol: sched.Static},
		{pol: sched.TimeShared},
		{pol: sched.RRProcess},
		{pol: sched.Gang},
		{pol: sched.DynamicSpace, free: true},
		{pol: sched.TimeShared, quant: sched.QuantumDynamic},
		{pol: sched.Static, order: sched.OrderSRPT},
		{pol: sched.DynamicSpace, part: sched.PartEqui, free: true},
	}
	plan := engine.NewPlan[ZooCell]("E14 zoo")
	for _, c := range contenders {
		c := c
		cfg := base
		cfg.Policy = c.pol
		cfg.PartitionPolicy = c.part
		cfg.QuantumPolicy = c.quant
		cfg.QueueOrder = c.order
		if c.free {
			cfg.PartitionSize = 0
		}
		plan.Add(cfg.PolicyLabel(), func() (ZooCell, error) {
			res, err := core.Run(cfg)
			if err != nil {
				return ZooCell{}, fmt.Errorf("%s: %w", cfg.PolicyLabel(), err)
			}
			return ZooCell{
				Label:    cfg.PolicyLabel(),
				Mean:     res.MeanResponse(),
				P95:      res.ResponsePercentile(95),
				Makespan: res.Makespan,
				Util:     res.CPUUtilization(),
				Overhead: res.SystemOverheadFraction(),
			}, nil
		})
	}
	return engine.Execute(plan, opts...)
}

// ZooTable renders E14.
func ZooTable(cells []ZooCell) string {
	t := newText("E14 — Policy zoo vs the paper's disciplines (same closed batch)")
	t.linef("%-20s %12s %12s %12s %8s %8s\n", "policy", "mean", "p95", "makespan", "util", "ovh")
	for _, c := range cells {
		t.linef("%-20s %12s %12s %12s %7.1f%% %7.1f%%\n",
			c.Label, fmtSec(c.Mean), fmtSec(c.P95), fmtSec(c.Makespan), 100*c.Util, 100*c.Overhead)
	}
	return t.String()
}

var zooCols = []string{"policy", "mean_s", "p95_s", "makespan_s", "util", "overhead"}

func zooRows(cells []ZooCell) func(rowWriter) {
	return func(w rowWriter) {
		for _, c := range cells {
			w.row(c.Label, secs(c.Mean), secs(c.P95), secs(c.Makespan), fix4(c.Util), fix4(c.Overhead))
		}
	}
}
