package cliflags

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/store"
)

// Cluster holds the flags that point a tool at the distributed sweep
// fabric. Any tool that registers them can shard its points over a fleet
// of schedd workers (or through a schedd coordinator) with -cluster, with
// output byte-identical to a local run — the coordinator routes and
// retries; the rows are formatted at home from lossless wire summaries.
type Cluster struct {
	// Targets is the comma-separated list of worker (or coordinator) base
	// URLs; empty means run locally.
	Targets *string
	// Inflight bounds concurrent requests per worker.
	Inflight *int
	// NoHedge disables straggler hedging (useful for debugging workers).
	NoHedge *bool
	// Report prints the routing summary to stderr after the run.
	Report *bool
	// Journal is the durable sweep journal directory, a result store
	// (internal/store): completed points are fsync'd there and replayed on
	// rerun, so an interrupted sweep resumes instead of restarting (empty =
	// not resumable).
	Journal *string
	// RetryBudget bounds total extra attempts per sweep (0 = default 1024,
	// negative = unlimited).
	RetryBudget *int
}

// RegisterCluster installs the -cluster flag family on the default flag
// set. Call it before flag.Parse.
func RegisterCluster() Cluster {
	return Cluster{
		Targets:  flag.String("cluster", "", "comma-separated schedd worker or coordinator URLs (empty = run locally)"),
		Inflight: flag.Int("cluster-inflight", 0, "max in-flight requests per cluster worker (0 = default)"),
		NoHedge:  flag.Bool("cluster-no-hedge", false, "disable straggler hedging"),
		Report:   flag.Bool("cluster-report", false, "print cluster routing stats to stderr after the run"),
		Journal:  flag.String("cluster-journal", "", "durable sweep journal directory (rerun resumes instead of restarting)"),
		RetryBudget: flag.Int("cluster-retry-budget", 0,
			"max extra attempts per sweep: failovers, backpressure waits, hedges (0 = default, negative = unlimited)"),
	}
}

// Enabled reports whether -cluster was given.
func (c Cluster) Enabled() bool { return strings.TrimSpace(*c.Targets) != "" }

// Coordinator builds the routing client over the flagged fleet. Bare
// host:port targets get the http:// scheme; trailing slashes are trimmed
// so URL concatenation stays clean. With -cluster-journal the coordinator
// journals completed points and replays them on rerun.
func (c Cluster) Coordinator() (*cluster.Coordinator, error) {
	targets := Split(*c.Targets)
	if len(targets) == 0 {
		return nil, fmt.Errorf("-cluster given but no targets parsed from %q", *c.Targets)
	}
	urls := make([]string, len(targets))
	for i, t := range targets {
		if !strings.HasPrefix(t, "http://") && !strings.HasPrefix(t, "https://") {
			t = "http://" + t
		}
		urls[i] = strings.TrimRight(t, "/")
	}
	opts := cluster.Options{
		Workers:           urls,
		PerWorkerInflight: *c.Inflight,
		DisableHedging:    *c.NoHedge,
		SweepRetryBudget:  *c.RetryBudget,
	}
	if dir := strings.TrimSpace(*c.Journal); dir != "" {
		journal, err := store.Open(dir, 0)
		if err != nil {
			return nil, err
		}
		opts.Memo = journal
	}
	return cluster.New(opts), nil
}

// RemoteOptions is the engine configuration for executing a remote plan:
// the user's -j if set, otherwise enough parallelism to saturate the
// fleet (local CPU count is irrelevant — the points run elsewhere).
func (c Cluster) RemoteOptions(common Common, coord *cluster.Coordinator) engine.Options {
	opts := common.Options()
	if opts.Workers == 0 {
		opts.Workers = coord.SuggestedParallelism()
	}
	return opts
}

// FinishReport prints the routing summary to stderr when -cluster-report
// was given. Call it after the remote plan completes.
func (c Cluster) FinishReport(coord *cluster.Coordinator) {
	if *c.Report {
		fmt.Fprintln(os.Stderr, coord.Snapshot().Report())
	}
}
