package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"

	"repro/internal/comm"
	"repro/internal/sched"
)

// RunRequest is the POST /v1/run body: either a named experiment from the
// catalog ("f3".."f6", "e1".."e15") or a single config-shaped run. Every
// field is optional; zero values are the paper's defaults, exactly as in
// core.Config.
type RunRequest struct {
	// Experiment names a catalog entry; empty means a single run of Config.
	Experiment string `json:"experiment,omitempty"`
	// Format selects the rendering: "json" (default), "csv" or "table".
	Format string `json:"format,omitempty"`
	// Config shapes the simulation (single run) or the base config every
	// point of a named experiment inherits (seed, mode, costs...).
	Config ConfigSpec `json:"config"`
	// TimeoutMS bounds this request's processing time, queueing included;
	// 0 uses the server default. Excluded from the cache key: it changes
	// when an answer arrives, never what the answer is.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ConfigSpec is the wire form of core.Config: the same fields in the same
// units the CLI tools accept (enums as their flag spellings, times in µs).
// It exists so the HTTP API is stable JSON with validation, not a raw dump
// of internal types.
type ConfigSpec struct {
	Processors  int    `json:"processors,omitempty"`
	MemoryBytes int64  `json:"memory_bytes,omitempty"`
	Partition   int    `json:"partition,omitempty"`
	Topology    string `json:"topology,omitempty"`
	Policy      string `json:"policy,omitempty"`
	// PartitionPolicy, QuantumPolicy and QueueOrder override individual
	// policy components by name ("equi", "dynamic", "srpt", ...); empty
	// inherits the component from Policy, exactly as in core.Config.
	PartitionPolicy string `json:"partition_policy,omitempty"`
	QuantumPolicy   string `json:"quantum_policy,omitempty"`
	QueueOrder      string `json:"queue_order,omitempty"`
	App             string `json:"app,omitempty"`
	Arch            string `json:"arch,omitempty"`
	Mode            string `json:"mode,omitempty"`
	Order           string `json:"order,omitempty"`
	QuantumUS       int64  `json:"quantum_us,omitempty"`
	MPL             int    `json:"mpl,omitempty"`
	Seed            int64  `json:"seed,omitempty"`
	SampleEveryUS   int64  `json:"sample_every_us,omitempty"`

	Fault *FaultSpec `json:"fault,omitempty"`

	// Arrival switches the run to open-system streaming arrivals; absent
	// means the paper's closed batch, exactly as in core.Config.
	Arrival *ArrivalSpec `json:"arrival,omitempty"`
}

// ArrivalSpec is the wire form of arrival.Spec (times in µs). Trace replay
// has no wire form: the trace file is not part of the config, so a trace
// run is not content-addressable and cannot be cached or routed remotely.
type ArrivalSpec struct {
	// Process names the interarrival process: "poisson", "pareto",
	// "periodic".
	Process            string  `json:"process"`
	Jobs               int64   `json:"jobs,omitempty"`
	Load               float64 `json:"load,omitempty"`
	MeanInterarrivalUS int64   `json:"mean_interarrival_us,omitempty"`
	ParetoAlpha        float64 `json:"pareto_alpha,omitempty"`
	ParetoCapUS        int64   `json:"pareto_cap_us,omitempty"`
	SmallWorkUS        int64   `json:"small_work_us,omitempty"`
	LargeWorkUS        int64   `json:"large_work_us,omitempty"`
	LargeEvery         int64   `json:"large_every,omitempty"`
	WidthSmall         int     `json:"width_small,omitempty"`
	WidthLarge         int     `json:"width_large,omitempty"`
}

// FaultSpec is the wire form of fault.Config (times in µs).
type FaultSpec struct {
	Seed                 int64   `json:"seed,omitempty"`
	NodeMTBFUS           int64   `json:"node_mtbf_us,omitempty"`
	NodeMTTRUS           int64   `json:"node_mttr_us,omitempty"`
	LinkMTBFUS           int64   `json:"link_mtbf_us,omitempty"`
	LinkMTTRUS           int64   `json:"link_mttr_us,omitempty"`
	DropProb             float64 `json:"drop_prob,omitempty"`
	HorizonUS            int64   `json:"horizon_us,omitempty"`
	RetryTimeoutUS       int64   `json:"retry_timeout_us,omitempty"`
	RetryBudget          int     `json:"retry_budget,omitempty"`
	CheckpointIntervalUS int64   `json:"checkpoint_interval_us,omitempty"`
	CheckpointCostUS     int64   `json:"checkpoint_cost_us,omitempty"`
	RestartBudget        int     `json:"restart_budget,omitempty"`
}

// parseRunRequest decodes and validates a request body. Unknown fields are
// errors — a typoed "polcy" must not silently run the default policy.
func parseRunRequest(r io.Reader) (*RunRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after JSON body")
	}
	return &req, nil
}

// ParseRunRequestBytes parses a run request body from bytes. Exported so
// the cluster coordinator's proxy can compute routing keys with exactly the
// validation the worker will apply.
func ParseRunRequestBytes(b []byte) (*RunRequest, error) {
	return parseRunRequest(bytes.NewReader(b))
}

// Resolve validates the request into the pieces the server executes: the
// core config, the optional catalog entry, the rendering format, and the
// content-address under which the response is cached.
func (req *RunRequest) Resolve() (cfg core.Config, entry *experiments.CatalogEntry, format experiments.Format, key string, err error) {
	// Over HTTP the natural default is structured output; the CLI keeps
	// its human-readable table default.
	spec := req.Format
	if spec == "" {
		spec = "json"
	}
	format, err = experiments.ParseFormat(spec)
	if err != nil {
		return cfg, nil, 0, "", err
	}
	if req.Experiment != "" {
		entry = experiments.Lookup(req.Experiment)
		if entry == nil {
			return cfg, nil, 0, "", fmt.Errorf("unknown experiment %q", req.Experiment)
		}
	}
	cfg, err = req.Config.ToConfig()
	if err != nil {
		return cfg, nil, 0, "", err
	}
	cfgHash, err := cfg.Hash()
	if err != nil {
		return cfg, nil, 0, "", err
	}
	// The content address binds everything that determines the response
	// bytes: what to run (config hash; experiment id) and how to render
	// it. Workers, timeouts and transport details are excluded — they
	// never change the bytes.
	h := sha256.New()
	io.WriteString(h, "repro-run-v1;config=")
	io.WriteString(h, cfgHash)
	io.WriteString(h, ";experiment=")
	if entry != nil {
		io.WriteString(h, entry.ID)
	}
	io.WriteString(h, ";format=")
	io.WriteString(h, format.String())
	return cfg, entry, format, hex.EncodeToString(h.Sum(nil)), nil
}

// ToConfig validates the spec into a core.Config using the same parsers as
// the CLI flags.
func (s ConfigSpec) ToConfig() (core.Config, error) {
	var cfg core.Config
	cfg.Processors = s.Processors
	cfg.MemoryBytes = s.MemoryBytes
	cfg.PartitionSize = s.Partition
	cfg.BasicQuantum = sim.Time(s.QuantumUS)
	cfg.MaxResident = s.MPL
	cfg.Seed = s.Seed
	cfg.SampleEvery = sim.Time(s.SampleEveryUS)
	var err error
	if s.Topology != "" {
		if cfg.Topology, err = topology.ParseKind(s.Topology); err != nil {
			return cfg, err
		}
	}
	if s.Policy != "" {
		if cfg.Policy, err = sched.ParsePolicy(s.Policy); err != nil {
			return cfg, err
		}
	}
	if s.PartitionPolicy != "" {
		if cfg.PartitionPolicy, err = sched.ParsePartitionKind(s.PartitionPolicy); err != nil {
			return cfg, err
		}
	}
	if s.QuantumPolicy != "" {
		if cfg.QuantumPolicy, err = sched.ParseQuantumKind(s.QuantumPolicy); err != nil {
			return cfg, err
		}
	}
	if s.QueueOrder != "" {
		if cfg.QueueOrder, err = sched.ParseOrderKind(s.QueueOrder); err != nil {
			return cfg, err
		}
	}
	if s.App != "" {
		if cfg.App, err = core.ParseApp(s.App); err != nil {
			return cfg, err
		}
	}
	if s.Arch != "" {
		if cfg.Arch, err = workload.ParseArch(s.Arch); err != nil {
			return cfg, err
		}
	}
	if s.Mode != "" {
		if cfg.Mode, err = comm.ParseMode(s.Mode); err != nil {
			return cfg, err
		}
	}
	if s.Order != "" {
		if cfg.Order, err = core.ParseOrder(s.Order); err != nil {
			return cfg, err
		}
	}
	if s.Arrival != nil {
		kind, err := arrival.ParseKind(s.Arrival.Process)
		if err != nil {
			return cfg, &core.ConfigError{Field: "arrival.process", Err: err}
		}
		if kind == arrival.Trace {
			return cfg, &core.ConfigError{Field: "arrival.process",
				Err: fmt.Errorf("trace replay is not wire-representable (the trace file is not part of the config)")}
		}
		cfg.Arrival = arrival.Spec{
			Kind:             kind,
			Jobs:             s.Arrival.Jobs,
			Load:             s.Arrival.Load,
			MeanInterarrival: sim.Time(s.Arrival.MeanInterarrivalUS),
			ParetoAlpha:      s.Arrival.ParetoAlpha,
			ParetoCap:        sim.Time(s.Arrival.ParetoCapUS),
			SmallWork:        sim.Time(s.Arrival.SmallWorkUS),
			LargeWork:        sim.Time(s.Arrival.LargeWorkUS),
			LargeEvery:       s.Arrival.LargeEvery,
			WidthSmall:       s.Arrival.WidthSmall,
			WidthLarge:       s.Arrival.WidthLarge,
		}
	}
	if s.Fault != nil {
		cfg.Fault = &fault.Config{
			Seed:               s.Fault.Seed,
			NodeMTBF:           sim.Time(s.Fault.NodeMTBFUS),
			NodeMTTR:           sim.Time(s.Fault.NodeMTTRUS),
			LinkMTBF:           sim.Time(s.Fault.LinkMTBFUS),
			LinkMTTR:           sim.Time(s.Fault.LinkMTTRUS),
			DropProb:           s.Fault.DropProb,
			Horizon:            sim.Time(s.Fault.HorizonUS),
			RetryTimeout:       sim.Time(s.Fault.RetryTimeoutUS),
			RetryBudget:        s.Fault.RetryBudget,
			CheckpointInterval: sim.Time(s.Fault.CheckpointIntervalUS),
			CheckpointCost:     sim.Time(s.Fault.CheckpointCostUS),
			RestartBudget:      s.Fault.RestartBudget,
		}
	}
	return cfg, nil
}
