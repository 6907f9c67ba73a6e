// Command schedd serves the simulator as a long-running HTTP service:
// experiment requests in, structured results out, with a content-addressed
// result cache, bounded admission, and live metrics. See internal/serve.
//
// Quick start:
//
//	schedd -addr :8080 &
//	curl -s localhost:8080/v1/experiments                # what's runnable
//	curl -s -X POST localhost:8080/v1/run \
//	     -d '{"config":{"partition":4,"topology":"mesh","policy":"ts"}}'
//	# repeat the POST: X-Cache: hit, byte-identical body, no simulation
//	curl -s -X POST localhost:8080/v1/point \
//	     -d '{"config":{"policy":"ts","arrival":{"process":"poisson","jobs":1000,"load":0.8}}}'
//	# open-system stream: the summary carries an "open" section
//
// Endpoints:
//
//	POST /v1/run         run a named experiment or a single config
//	GET  /v1/experiments list the experiment catalog
//	GET  /healthz        liveness + drain state
//	GET  /metrics        Prometheus text format
//
// SIGTERM/SIGINT drain gracefully: /healthz flips to 503, in-flight
// requests finish (bounded by -drain), then the listener closes.
//
// Cluster modes (see internal/cluster):
//
//	schedd -coordinate -addr :9090          # coordinator: worker registry +
//	                                        # cache-affine proxy + /metrics
//	schedd -addr :8080 -worker -coordinator http://127.0.0.1:9090
//	schedd -addr :8081 -worker -coordinator http://127.0.0.1:9090
//
// A -worker schedd registers its advertised URL with the coordinator after
// the listener is up, renews the lease at a third of its TTL, and
// deregisters before draining on SIGTERM — so the coordinator stops
// routing new points to it while its in-flight requests finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		inflight     = flag.Int("inflight", 2, "max concurrently executing requests")
		queue        = flag.Int("queue", 8, "max requests waiting for an execution slot (beyond: 429)")
		cacheEntries = flag.Int("cache-entries", 1024, "result cache entry bound")
		cacheMB      = flag.Int64("cache-mb", 64, "result cache size bound in MiB")
		timeout      = flag.Duration("timeout", 60*time.Second, "default per-request processing deadline")
		maxTimeout   = flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested deadlines")
		drain        = flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight requests")
		storeDir     = flag.String("store", "", "tier-2 disk result store directory (persists the cache across restarts)")
		storeMB      = flag.Int64("store-mb", 256, "tier-2 store size bound in MiB")

		coordinate  = flag.Bool("coordinate", false, "run as cluster coordinator (worker registry + affinity proxy) instead of a simulation server")
		workerMode  = flag.Bool("worker", false, "register with -coordinator as a cluster worker")
		coordinator = flag.String("coordinator", "", "coordinator base URL for -worker registration")
		advertise   = flag.String("advertise", "", "base URL to advertise to the coordinator (default: derived from the bound listen address)")
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "worker lease TTL granted by -coordinate")
		journalDir  = flag.String("journal", "", "durable sweep journal directory for -coordinate, in the -store format (replay completed points on restart)")
	)
	cf := cliflags.Register() // -j (engine workers per request) + profiling
	flag.Parse()

	stopProf, err := cf.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(2)
	}
	defer stopProf()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	if *coordinate {
		if err := runCoordinator(*addr, *journalDir, *leaseTTL, *drain, logger, nil); err != nil {
			fmt.Fprintln(os.Stderr, "schedd:", err)
			os.Exit(1)
		}
		return
	}

	var reg *workerRegistration
	if *workerMode {
		if *coordinator == "" {
			fmt.Fprintln(os.Stderr, "schedd: -worker requires -coordinator URL")
			os.Exit(2)
		}
		reg = &workerRegistration{coordinator: *coordinator, advertise: *advertise}
	}
	if err := run(*addr, serve.Options{
		Workers:        *cf.Workers,
		MaxInflight:    *inflight,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheMB << 20,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		StoreDir:       *storeDir,
		StoreBytes:     *storeMB << 20,
		Logger:         logger,
	}, *drain, logger, nil, reg); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

// workerRegistration configures cluster membership for a -worker schedd.
type workerRegistration struct {
	coordinator string // coordinator base URL
	advertise   string // advertised base URL; "" derives from the bound addr
}

// run boots the server on addr and blocks until SIGTERM/SIGINT, then
// drains. If ready is non-nil it receives the bound listen address once
// the server is accepting (used by the smoke test to bind port 0). A
// non-nil reg registers the server as a cluster worker once it is
// accepting and deregisters before the drain begins.
func run(addr string, opts serve.Options, drain time.Duration, logger *slog.Logger, ready chan<- string, reg *workerRegistration) error {
	srv, err := serve.Open(opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Info("schedd listening", slog.String("addr", ln.Addr().String()))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Cluster membership: register once accepting, keep the lease fresh in
	// the background, and make sure the coordinator drops us before we
	// drain. Registration failure is fatal — a worker nobody routes to is a
	// misconfiguration, not a degraded mode.
	var stopLease context.CancelFunc
	if reg != nil {
		adv := reg.advertise
		if adv == "" {
			adv = cluster.AdvertiseURL(ln.Addr().String())
		}
		client := &http.Client{Timeout: 5 * time.Second}
		ttl, err := cluster.RegisterWorker(ctx, client, reg.coordinator, adv)
		if err != nil {
			httpSrv.Close()
			return fmt.Errorf("registering with coordinator %s: %w", reg.coordinator, err)
		}
		logger.Info("schedd registered with coordinator",
			slog.String("coordinator", reg.coordinator), slog.String("advertise", adv),
			slog.Duration("lease_ttl", ttl))
		var leaseCtx context.Context
		leaseCtx, stopLease = context.WithCancel(context.Background())
		go cluster.MaintainWorker(leaseCtx, client, reg.coordinator, adv, ttl)
		defer func() {
			stopLease()
			cluster.DeregisterWorker(client, reg.coordinator, adv)
			logger.Info("schedd deregistered from coordinator")
		}()
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Deregister before draining so the coordinator reroutes new points
	// while our in-flight requests finish; the deferred deregister above is
	// then a harmless no-op repeat.
	if reg != nil {
		stopLease()
		adv := reg.advertise
		if adv == "" {
			adv = cluster.AdvertiseURL(ln.Addr().String())
		}
		cluster.DeregisterWorker(&http.Client{Timeout: 5 * time.Second}, reg.coordinator, adv)
	}

	// Drain: stop advertising healthy, let in-flight requests finish, then
	// close. Shutdown does not cancel request contexts — a request beats
	// the grace period or its own deadline, whichever is shorter.
	logger.Info("schedd draining", slog.Duration("grace", drain))
	srv.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Flush dirty cache entries to the tier-2 store before exiting: every
	// result computed this lifetime is a warm hit after the restart.
	srv.FlushStore()
	logger.Info("schedd stopped")
	return nil
}

// runCoordinator boots the cluster coordinator: the worker registry, the
// cache-affine proxy for /v1/run and /v1/point, and routing metrics.
func runCoordinator(addr, journalDir string, leaseTTL, drain time.Duration, logger *slog.Logger, ready chan<- string) error {
	copts := cluster.Options{}
	if journalDir != "" {
		journal, err := store.Open(journalDir, 0)
		if err != nil {
			return err
		}
		entries, _ := journal.Stats()
		logger.Info("schedd journal open", slog.String("dir", journalDir),
			slog.Int("replayed", entries))
		copts.Memo = journal
	}
	coord := cluster.New(copts)
	cs := cluster.NewServer(cluster.ServerOptions{
		Coordinator: coord,
		LeaseTTL:    leaseTTL,
		Logger:      logger,
	})
	defer cs.Close()
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           cs.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Info("schedd coordinating", slog.String("addr", ln.Addr().String()),
		slog.Duration("lease_ttl", leaseTTL))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Info("schedd coordinator draining", slog.Duration("grace", drain))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	logger.Info("schedd coordinator stopped")
	return nil
}
