// Package cliflags centralizes what the simulator commands' flag handling
// shares: the -seed/-j pair every tool registers, the profiling trio
// (-cpuprofile/-memprofile/-trace), and the comma-separated dimension
// parsers behind sweep-style flags. Keeping them here means a new dimension
// or a changed default lands in every tool at once.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"

	"repro/internal/arrival"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Common holds the flags every simulator command shares.
type Common struct {
	// Seed is the base simulation seed.
	Seed *int64
	// Workers bounds concurrent simulation points; 0 means all CPUs.
	// The worker count never changes output, only wall-clock time.
	Workers *int
	// Profiling is the embedded -cpuprofile/-memprofile/-trace trio.
	Profiling
}

// Profiling holds just the profiling trio, for tools that take no
// simulation flags (cmd/topoinfo).
type Profiling struct {
	// CPUProfile, MemProfile and TracePath are profiling output files
	// (empty disables each). See StartProfiling.
	CPUProfile, MemProfile, TracePath *string
}

// Register installs -seed, -j and the profiling flags on the default flag
// set. Call it before flag.Parse.
func Register() Common {
	return Common{
		Seed:      flag.Int64("seed", 0, "simulation seed"),
		Workers:   flag.Int("j", 0, "parallel simulation workers (0 = all CPUs; any value gives identical output)"),
		Profiling: RegisterProfiling(),
	}
}

// RegisterProfiling installs only -cpuprofile, -memprofile and -trace.
func RegisterProfiling() Profiling {
	return Profiling{
		CPUProfile: flag.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		MemProfile: flag.String("memprofile", "", "write a pprof heap profile to this file at exit"),
		TracePath:  flag.String("trace", "", "write a runtime execution trace to this file"),
	}
}

// StartProfiling starts CPU profiling and execution tracing as requested by
// the flags and returns the stop function that finishes them (and writes the
// heap profile, after a GC so it reflects live data). Call it after
// flag.Parse; run stop before the program exits. With no profiling flags set
// both calls are no-ops.
func (c Profiling) StartProfiling() (stop func(), err error) {
	var cpuF, traceF *os.File
	if *c.CPUProfile != "" {
		cpuF, err = os.Create(*c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if *c.TracePath != "" {
		traceF, err = os.Create(*c.TracePath)
		if err == nil {
			err = rtrace.Start(traceF)
		}
		if err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			if traceF != nil {
				traceF.Close()
			}
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			rtrace.Stop()
			traceF.Close()
		}
		if *c.MemProfile != "" {
			f, err := os.Create(*c.MemProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
		}
	}, nil
}

// Base is the starting core.Config the common flags describe.
func (c Common) Base() core.Config { return core.Config{Seed: *c.Seed} }

// Options is the engine configuration the common flags describe.
func (c Common) Options() engine.Options { return engine.Options{Workers: *c.Workers} }

// Split breaks a comma-separated list into trimmed, non-empty fields.
func Split(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range Split(s) {
		v, err := parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Policies parses a comma-separated scheduling-policy list.
func Policies(s string) ([]sched.Policy, error) { return parseList(s, sched.ParsePolicy) }

// PartitionKinds parses a comma-separated partition-policy list.
func PartitionKinds(s string) ([]sched.PartitionKind, error) {
	return parseList(s, sched.ParsePartitionKind)
}

// QuantumKinds parses a comma-separated quantum-policy list.
func QuantumKinds(s string) ([]sched.QuantumKind, error) {
	return parseList(s, sched.ParseQuantumKind)
}

// OrderKinds parses a comma-separated queue-order list.
func OrderKinds(s string) ([]sched.OrderKind, error) {
	return parseList(s, sched.ParseOrderKind)
}

// nameSize splits a "name:123" spec value. A bare integer yields name = ""
// with its value in n; a bare name yields n = -1; "name:123" yields both.
func nameSize(v string) (name string, n int64, err error) {
	head, suffix, found := strings.Cut(v, ":")
	if i, ierr := strconv.ParseInt(head, 10, 64); ierr == nil && !found {
		return "", i, nil
	}
	if !found {
		return head, -1, nil
	}
	n, err = strconv.ParseInt(suffix, 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("numeric suffix in %q: %w", v, err)
	}
	return head, n, nil
}

// PartitionSpec applies one -partition value to the config: a bare integer
// sets the fixed partition size, a partition-policy name ("equi", "buddy",
// ...) overrides the partitioning component, and "name:n" does both.
func PartitionSpec(cfg *core.Config, v string) error {
	name, n, err := nameSize(v)
	if err != nil {
		return err
	}
	if name != "" {
		k, err := sched.ParsePartitionKind(name)
		if err != nil {
			return err
		}
		cfg.PartitionPolicy = k
	}
	if n >= 0 {
		cfg.PartitionSize = int(n)
	}
	return nil
}

// QuantumSpec applies one -quantum value to the config: a bare integer sets
// the basic quantum in µs, a quantum-policy name ("rrjob", "dynamic", ...)
// overrides the quantum component, and "name:µs" does both.
func QuantumSpec(cfg *core.Config, v string) error {
	name, n, err := nameSize(v)
	if err != nil {
		return err
	}
	if name != "" {
		k, err := sched.ParseQuantumKind(name)
		if err != nil {
			return err
		}
		cfg.QuantumPolicy = k
	}
	if n >= 0 {
		cfg.BasicQuantum = sim.Time(n)
	}
	return nil
}

// OrderSpec applies one -order value to the config: a comma-separated mix
// of batch submission orders (submission, smallest-first, largest-first)
// and ready-queue orders (fcfs, priority, srpt). The two namespaces are
// disjoint, so each token is unambiguous.
func OrderSpec(cfg *core.Config, v string) error {
	for _, tok := range Split(v) {
		if o, err := core.ParseOrder(tok); err == nil {
			cfg.Order = o
			continue
		}
		k, err := sched.ParseOrderKind(tok)
		if err != nil {
			return fmt.Errorf("order %q is neither a batch order (submission, smallest-first, largest-first) nor a queue order: %w", tok, err)
		}
		cfg.QueueOrder = k
	}
	return nil
}

// ApplyPolicySpec applies a -policy value to the config: either a legacy
// discipline name ("static", "ts", "gang", ...) or a composed spec of
// key=value pairs — "partition=equi,quantum=rrjob,order=srpt" — where the
// partition value accepts a ":size" suffix and the quantum value a ":µs"
// suffix, exactly as the standalone -partition and -quantum flags do.
func ApplyPolicySpec(cfg *core.Config, v string) error {
	if !strings.Contains(v, "=") {
		pol, err := sched.ParsePolicy(v)
		if err != nil {
			return err
		}
		cfg.Policy = pol
		return nil
	}
	for _, tok := range Split(v) {
		key, val, found := strings.Cut(tok, "=")
		if !found || val == "" {
			return fmt.Errorf("policy spec component %q is not key=value", tok)
		}
		switch key {
		case "partition", "part":
			if err := PartitionSpec(cfg, val); err != nil {
				return err
			}
		case "quantum", "quant":
			if err := QuantumSpec(cfg, val); err != nil {
				return err
			}
		case "order":
			if err := OrderSpec(cfg, val); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown policy spec key %q (valid: partition, quantum, order)", key)
		}
	}
	return nil
}

// Arrival holds the open-system arrival flags the simulator commands share.
// All three leave the config untouched when unset, so the closed batch stays
// the default.
type Arrival struct {
	// Spec is the -arrival process spec, "kind[:k=v,...]".
	Spec *string
	// Load is the -load target utilization ρ.
	Load *float64
	// Trace is the -arrival-trace JSONL path. (-trace is the runtime
	// execution trace, same reason tsim's event trace is -events.)
	Trace *string
}

// RegisterArrival installs -arrival, -load and -arrival-trace on the default
// flag set. Call it before flag.Parse.
func RegisterArrival() Arrival {
	return Arrival{
		Spec: flag.String("arrival", "", "open-system arrival process: kind[:k=v,...] — poisson, pareto, periodic; "+
			"keys: jobs, load, mean (µs), alpha, cap (µs), small (µs), large (µs), every, width-small, width-large "+
			"(e.g. poisson:jobs=100000,load=0.8)"),
		Load:  flag.Float64("load", 0, "target utilization ρ for the arrival process (shorthand for -arrival ...:load=ρ)"),
		Trace: flag.String("arrival-trace", "", "replay open-system arrivals from this JSONL trace file"),
	}
}

// Apply writes the arrival flags into cfg.Arrival. With none of the three
// set it is a no-op and the config keeps its closed batch.
func (a Arrival) Apply(cfg *core.Config) error {
	if *a.Spec != "" {
		if err := ArrivalSpec(&cfg.Arrival, *a.Spec); err != nil {
			return err
		}
	}
	if *a.Trace != "" {
		cfg.Arrival.Kind = arrival.Trace
		cfg.Arrival.TracePath = *a.Trace
	}
	if *a.Load != 0 {
		if cfg.Arrival.Kind == arrival.Disabled {
			cfg.Arrival.Kind = arrival.Poisson
		}
		cfg.Arrival.Load = *a.Load
	}
	return nil
}

// ArrivalSpec applies one -arrival value to the spec: a process name
// ("poisson", "pareto", "periodic"), optionally followed by comma-separated
// key=value pairs after a colon, as in "pareto:alpha=1.5,load=0.9".
func ArrivalSpec(spec *arrival.Spec, v string) error {
	head, rest, _ := strings.Cut(v, ":")
	kind, err := arrival.ParseKind(head)
	if err != nil {
		return err
	}
	spec.Kind = kind
	for _, tok := range Split(rest) {
		key, val, found := strings.Cut(tok, "=")
		if !found || val == "" {
			return fmt.Errorf("arrival spec component %q is not key=value", tok)
		}
		if err := arrivalKey(spec, key, val); err != nil {
			return err
		}
	}
	return nil
}

func arrivalKey(spec *arrival.Spec, key, val string) error {
	asInt := func() (int64, error) {
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("arrival %s=%q: %w", key, val, err)
		}
		return n, nil
	}
	asFloat := func() (float64, error) {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return 0, fmt.Errorf("arrival %s=%q: %w", key, val, err)
		}
		return f, nil
	}
	var (
		n   int64
		f   float64
		err error
	)
	switch key {
	case "jobs":
		n, err = asInt()
		spec.Jobs = n
	case "load":
		f, err = asFloat()
		spec.Load = f
	case "mean":
		n, err = asInt()
		spec.MeanInterarrival = sim.Time(n)
	case "alpha":
		f, err = asFloat()
		spec.ParetoAlpha = f
	case "cap":
		n, err = asInt()
		spec.ParetoCap = sim.Time(n)
	case "small":
		n, err = asInt()
		spec.SmallWork = sim.Time(n)
	case "large":
		n, err = asInt()
		spec.LargeWork = sim.Time(n)
	case "every":
		n, err = asInt()
		spec.LargeEvery = n
	case "width-small", "ws":
		n, err = asInt()
		spec.WidthSmall = int(n)
	case "width-large", "wl":
		n, err = asInt()
		spec.WidthLarge = int(n)
	default:
		return fmt.Errorf("unknown arrival spec key %q (valid: jobs, load, mean, alpha, cap, small, large, every, width-small, width-large)", key)
	}
	return err
}

// Topologies parses a comma-separated topology list.
func Topologies(s string) ([]topology.Kind, error) { return parseList(s, topology.ParseKind) }

// Apps parses a comma-separated application list.
func Apps(s string) ([]core.AppKind, error) { return parseList(s, core.ParseApp) }

// Archs parses a comma-separated software-architecture list.
func Archs(s string) ([]workload.Arch, error) { return parseList(s, workload.ParseArch) }

// Modes parses a comma-separated switching-mode list.
func Modes(s string) ([]comm.Mode, error) { return parseList(s, comm.ParseMode) }

// Ints parses a comma-separated integer list.
func Ints(s string) ([]int, error) {
	return parseList(s, func(f string) (int, error) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return 0, fmt.Errorf("integer %q: %w", f, err)
		}
		return v, nil
	})
}

// QuantaUS parses a comma-separated list of quanta given in microseconds.
func QuantaUS(s string) ([]sim.Time, error) {
	return parseList(s, func(f string) (sim.Time, error) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("quantum %q: %w", f, err)
		}
		return sim.Time(v), nil
	})
}
