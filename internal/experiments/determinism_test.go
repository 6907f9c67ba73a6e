package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestDriverDeterminismAcrossWorkers is the engine contract asserted at the
// driver level: each experiment returns identical result structures and
// identical CSV bytes at Workers=1 (the historical sequential loops) and
// Workers=8. Byte equality of the rendered CSV is the property the tools'
// golden outputs rely on.
func TestDriverDeterminismAcrossWorkers(t *testing.T) {
	cases := []struct {
		name string
		run  func(opts engine.Options) (any, string, error)
	}{
		{"figure3", func(opts engine.Options) (any, string, error) {
			fig, err := Figure3(core.Config{}, opts)
			if err != nil {
				return nil, "", err
			}
			return fig, fig.CSV(), nil
		}},
		{"figure6", func(opts engine.Options) (any, string, error) {
			fig, err := Figure6(core.Config{}, opts)
			if err != nil {
				return nil, "", err
			}
			return fig, fig.CSV(), nil
		}},
		{"quantum", func(opts engine.Options) (any, string, error) {
			points, err := QuantumSweep(DefaultQuanta, core.Config{}, opts)
			if err != nil {
				return nil, "", err
			}
			return points, renderCSV(quantumCols, quantumRows(points)), nil
		}},
		{"faultstudy", func(opts engine.Options) (any, string, error) {
			works := make([]sim.Time, 6)
			for i := range works {
				works[i] = 60 * sim.Millisecond
			}
			batch := workload.SyntheticBatch(works, workload.Adaptive, 256, 1024, workload.DefaultAppCost())
			study, err := RunFaultStudy(FaultStudyConfig{
				Base:     core.Config{Processors: 8, PartitionSize: 4, Seed: 5, Batch: batch},
				Topology: topology.Mesh,
				Policies: []sched.Policy{sched.Static, sched.TimeShared},
				MTBFs:    []sim.Time{150 * sim.Millisecond},
				Horizon:  400 * sim.Millisecond,
			}, opts)
			if err != nil {
				return nil, "", err
			}
			return study, study.CSV(), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqRes, seqCSV, err := tc.run(engine.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parRes, parCSV, err := tc.run(engine.Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seqRes, parRes) {
				t.Error("result structures diverge between Workers=1 and Workers=8")
			}
			if seqCSV != parCSV {
				t.Errorf("CSV bytes diverge between Workers=1 and Workers=8:\n-- w1 --\n%s\n-- w8 --\n%s", seqCSV, parCSV)
			}
		})
	}
}
