package cluster

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Adapters from core.Config to the cluster wire format. Tools build remote
// plans out of ConfigPoint and get back PointSummary values that feed the
// exact row formatters the local path uses — the byte-identical merge
// invariant lives here.

// ConfigPoint converts a config into the remote point the coordinator
// routes: body is the /v1/point request, key is serve.PointKey of the
// canonical config hash — the address the worker caches the response
// under, and the key the coordinator's proxy routes the same body by.
// Configs that are not wire-representable (custom cost models, tracers,
// batches) fail here, before anything touches the network.
func ConfigPoint(cfg core.Config) (engine.RemotePoint, error) {
	spec, err := serve.SpecFromConfig(cfg)
	if err != nil {
		return engine.RemotePoint{}, err
	}
	hash, err := cfg.Hash()
	if err != nil {
		return engine.RemotePoint{}, err
	}
	body, err := serve.EncodePointRequest(serve.PointRequest{Config: spec})
	if err != nil {
		return engine.RemotePoint{}, err
	}
	return engine.RemotePoint{
		Label: cfg.Label(),
		Key:   serve.PointKey(hash),
		Path:  "/v1/point",
		Body:  body,
	}, nil
}

// RunConfig executes one config on the cluster and decodes the summary —
// the remote analogue of core.Run for wire-representable configs.
func (c *Coordinator) RunConfig(ctx context.Context, cfg core.Config) (serve.PointSummary, error) {
	pt, err := ConfigPoint(cfg)
	if err != nil {
		return serve.PointSummary{}, err
	}
	body, err := c.Do(ctx, pt)
	if err != nil {
		return serve.PointSummary{}, err
	}
	ps, err := serve.DecodePointSummary(body)
	if err != nil {
		return serve.PointSummary{}, fmt.Errorf("point %s: %w", pt.Label, err)
	}
	return ps, nil
}

// FaultRunner adapts the coordinator to the experiments fault-study runner
// signature, so -cluster fault studies shard their points over the fleet
// while the study logic — the zero-rate-equals-baseline determinism check
// included — stays local. The wire summary carries times as exact integer
// microseconds, so the equality check compares the same sim.Time values it
// would locally.
func (c *Coordinator) FaultRunner(ctx context.Context) experiments.FaultRunner {
	return func(cfg core.Config) (experiments.FaultRunSummary, error) {
		ps, err := c.RunConfig(ctx, cfg)
		if err != nil {
			return experiments.FaultRunSummary{}, err
		}
		return experiments.FaultRunSummary{
			Mean:     sim.Time(ps.MeanUS),
			Makespan: sim.Time(ps.MakespanUS),
			Retries:  ps.Retries,
			Faults:   ps.Fault.FaultStats(),
		}, nil
	}
}
