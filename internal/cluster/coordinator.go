// Package cluster is the distributed sweep fabric: a coordinator that
// shards engine plans across a fleet of schedd workers over HTTP, plus the
// worker registration/lease protocol that keeps the fleet view current.
//
// The coordinator routes every point by rendezvous hashing on its content
// address (the serve key the worker caches its response under), so
// repeated and overlapping sweeps land on the worker that already holds
// the cached result — cache-affine routing, the same trick inference
// routers play with KV caches. Around that affinity it layers the
// machinery a real fleet needs: per-worker in-flight bounds, bounded 429
// backoff honoring the worker's Retry-After, a per-worker circuit breaker
// (closed/open/half-open) that demotes flapping workers with
// exponentially growing open periods, failover to the next-ranked worker
// when the home worker dies or drains (failure-aware rebalancing),
// quantile-based hedging of straggler points bounded by a per-sweep retry
// budget, and an optional durable journal (Options.Memo) that makes a
// crashed sweep resumable. None of it changes results: workers compute
// deterministic, content-addressed bytes, so routing only ever decides
// where a byte slice is produced, never what it contains — the engine's
// byte-identical, index-keyed merge survives any fleet size.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Options tunes a Coordinator. Zero values take the listed defaults.
type Options struct {
	// Workers is the initial fleet: worker base URLs. The set can change
	// later via SetWorkers (the registry feeds it in coordinator-server
	// mode).
	Workers []string
	// PerWorkerInflight bounds concurrent requests per worker (default 4).
	// Workers bound admission themselves; this keeps the client from
	// queueing deeply behind a slow worker when a rehash would serve the
	// point sooner.
	PerWorkerInflight int
	// BackpressureRetries is how many 429 + Retry-After waits to spend on
	// the ranked worker before rehashing to the next one (default 2).
	BackpressureRetries int
	// MaxBackoff caps a single honored Retry-After wait (default 5s).
	MaxBackoff time.Duration
	// FailureThreshold is how many consecutive transport/5xx failures trip
	// a worker's circuit breaker open (default 1 — one failed simulation
	// is wasted seconds, so rebalance eagerly and probe later).
	FailureThreshold int
	// Cooldown is the breaker's initial open period after it trips; each
	// re-open doubles it up to MaxCooldown (defaults 2s, 30s). After the
	// open period the breaker goes half-open: one probe request decides
	// between closing it and re-opening with the doubled period.
	Cooldown    time.Duration
	MaxCooldown time.Duration
	// HedgeQuantile sets the straggler threshold: a point in flight longer
	// than this quantile of recent completions is raced on the next-ranked
	// worker (default 0.95). DisableHedging turns racing off.
	HedgeQuantile  float64
	DisableHedging bool
	// HedgeMinDelay floors the hedge delay so a burst of cache hits cannot
	// talk the coordinator into racing every point (default 50ms).
	// HedgeMinSamples is how many completions must be observed before
	// hedging arms (default 8).
	HedgeMinDelay   time.Duration
	HedgeMinSamples int
	// SweepRetryBudget bounds the total extra attempts — failover rehashes,
	// backpressure waits and hedge launches — this coordinator may spend
	// over its lifetime (one sweep, for the CLI tools). It is the fuse
	// that keeps a flapping fleet from consuming unbounded hedges and
	// retries. Default 1024; negative means unlimited.
	SweepRetryBudget int
	// Memo, when set, makes execution resumable: Do answers journaled
	// points without touching a worker and durably records each newly
	// completed point before reporting success. The production Memo is a
	// *store.Store (schedd -coordinate -journal <dir>).
	Memo engine.Memo
	// Client is the HTTP client (default: dedicated client, no global
	// timeout — deadlines come from request contexts).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.PerWorkerInflight <= 0 {
		o.PerWorkerInflight = 4
	}
	if o.BackpressureRetries <= 0 {
		o.BackpressureRetries = 2
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 1
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 2 * time.Second
	}
	if o.MaxCooldown <= 0 {
		o.MaxCooldown = 30 * time.Second
	}
	if o.HedgeQuantile <= 0 || o.HedgeQuantile > 1 {
		o.HedgeQuantile = 0.95
	}
	if o.HedgeMinDelay <= 0 {
		o.HedgeMinDelay = 50 * time.Millisecond
	}
	if o.HedgeMinSamples <= 0 {
		o.HedgeMinSamples = 8
	}
	if o.SweepRetryBudget == 0 {
		o.SweepRetryBudget = 1024
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// worker is the coordinator's view of one fleet member.
type worker struct {
	url   string
	slots chan struct{} // per-worker in-flight bound
	br    breaker       // failure state machine (closed/open/half-open)

	requests atomic.Int64 // points sent (attempts, including hedges)
	failures atomic.Int64 // transport errors + 5xx
	hits     atomic.Int64 // X-Cache: hit responses
	misses   atomic.Int64 // X-Cache: miss responses
	inflight atomic.Int64
}

// Coordinator shards points across the fleet. It implements engine.Remote.
type Coordinator struct {
	opts Options

	mu      sync.RWMutex
	workers map[string]*worker

	lat         *latencyWindow
	retryBudget atomic.Int64 // remaining extra attempts (when bounded)
	m           coordinatorMetrics

	now func() time.Time // test hook
}

// New builds a Coordinator over the given worker fleet.
func New(opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:    opts,
		workers: make(map[string]*worker),
		lat:     newLatencyWindow(256),
		now:     time.Now,
	}
	c.retryBudget.Store(int64(opts.SweepRetryBudget))
	c.SetWorkers(opts.Workers)
	return c
}

// SetWorkers replaces the fleet with the given worker URLs. Workers present
// in both sets keep their in-flight bounds and counters; removed workers
// drop out of routing immediately (requests already in flight to them
// finish or fail on their own). The registry calls this as leases come and
// go.
func (c *Coordinator) SetWorkers(urls []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := make(map[string]*worker, len(urls))
	for _, u := range urls {
		if w, ok := c.workers[u]; ok {
			next[u] = w
			continue
		}
		next[u] = &worker{url: u, slots: make(chan struct{}, c.opts.PerWorkerInflight)}
	}
	c.workers = next
}

// SuggestedParallelism is the client-side in-flight bound that saturates
// the fleet: every worker's slot allowance, plus one to keep a request
// queued behind each.
func (c *Coordinator) SuggestedParallelism() int {
	c.mu.RLock()
	n := len(c.workers)
	c.mu.RUnlock()
	if n == 0 {
		return 1
	}
	return n * (c.opts.PerWorkerInflight + 1)
}

// spendRetry consumes one unit of the per-sweep retry budget, reporting
// false when it is exhausted. Every extra attempt beyond a point's first —
// failover rehashes, backpressure waits, hedge launches — passes through
// here, so a flapping fleet degrades into bounded, accounted retrying
// instead of an unbounded storm.
func (c *Coordinator) spendRetry() bool {
	if c.opts.SweepRetryBudget < 0 {
		return true
	}
	for {
		cur := c.retryBudget.Load()
		if cur <= 0 {
			return false
		}
		if c.retryBudget.CompareAndSwap(cur, cur-1) {
			c.m.retrySpent.Add(1)
			return true
		}
	}
}

// retryBudgetLeft reports the remaining budget (-1 when unlimited).
func (c *Coordinator) retryBudgetLeft() int64 {
	if c.opts.SweepRetryBudget < 0 {
		return -1
	}
	return c.retryBudget.Load()
}

// errNoWorkers is returned when the fleet is empty.
var errNoWorkers = errors.New("cluster: no workers")

// errRetryBudgetExhausted marks failures caused by the per-sweep retry
// budget running dry rather than by any single worker.
var errRetryBudgetExhausted = errors.New("cluster: per-sweep retry budget exhausted")

// errPermanent marks responses that retrying elsewhere cannot fix (4xx:
// the request itself is malformed or names an unknown experiment).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Do routes one point: journal replay, rendezvous-ranked affinity, bounded
// backpressure retry, failover rehash, and straggler hedging. It
// implements engine.Remote, so ExecuteRemoteAll gives remote plans the
// engine's ordering and error contract.
//
// With a Memo configured, a point already journaled is answered from the
// journal byte-identically — no worker sees it — and a newly completed
// point is durably recorded before Do reports success, so an acknowledged
// point survives a coordinator crash.
func (c *Coordinator) Do(ctx context.Context, pt engine.RemotePoint) ([]byte, error) {
	if c.opts.Memo != nil {
		if body, ok := c.opts.Memo.Get(pt.Key); ok {
			c.m.journalHits.Add(1)
			c.m.points.Add(1)
			return body, nil
		}
	}
	start := c.now()
	body, err := c.do(ctx, pt)
	if err != nil {
		return nil, err
	}
	if c.opts.Memo != nil {
		if err := c.opts.Memo.Put(pt.Key, body); err != nil {
			return nil, fmt.Errorf("cluster: journaling point %s: %w", pt.Label, err)
		}
		c.m.journalAppends.Add(1)
	}
	c.m.points.Add(1)
	c.lat.record(c.now().Sub(start))
	return body, nil
}

func (c *Coordinator) do(ctx context.Context, pt engine.RemotePoint) ([]byte, error) {
	ranked, home := c.rank(pt.Key)
	if len(ranked) == 0 {
		return nil, errNoWorkers
	}
	// Every leg of this point — primary, hedge, backoff sleeps — derives
	// from one per-point context, cancelled the moment Do has an answer
	// (or gives up). A lost hedge race therefore tears down promptly
	// instead of leaking a goroutine that holds a worker slot until its
	// HTTP request times out on its own.
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	delay, hedge := c.hedgeDelay()
	if !hedge || len(ranked) < 2 {
		return c.failover(pctx, pt, ranked, home)
	}

	// Race a straggling primary against the rest of the ranking. The
	// secondary starts from the second-ranked worker, so a healthy home
	// keeps its cache affinity and the hedge lands on the deterministic
	// fallback — the worker a rehash would pick anyway.
	type outcome struct {
		body  []byte
		err   error
		hedge bool
	}
	ch := make(chan outcome, 2)
	go func() {
		b, err := c.failover(pctx, pt, ranked, home)
		ch <- outcome{b, err, false}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	outstanding := 1
	launched := false
	var firstErr error
	for {
		select {
		case <-timer.C:
			if launched {
				continue
			}
			launched = true
			if !c.spendRetry() {
				continue // budget dry: no hedge, ride the primary
			}
			outstanding++
			c.m.hedges.Add(1)
			hedged := append(append([]*worker{}, ranked[1:]...), ranked[0])
			go func() {
				b, err := c.failover(pctx, pt, hedged, home)
				ch <- outcome{b, err, true}
			}()
		case out := <-ch:
			outstanding--
			if out.err == nil {
				if out.hedge {
					c.m.hedgeWins.Add(1)
				}
				cancel()
				return out.body, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
			// The other leg is still running; its success can still save
			// the point. Stop arming new hedges either way.
			timer.Stop()
		}
	}
}

// rank returns the available workers in rendezvous order for the key, with
// workers whose breaker is open demoted to the tail (last resort rather
// than excluded: if the whole fleet is tripped, trying is still better
// than failing). home is the top of the pure ranking, breakers ignored —
// the worker whose cache should own this key.
func (c *Coordinator) rank(key string) (ranked []*worker, home string) {
	c.mu.RLock()
	ids := make([]string, 0, len(c.workers))
	for u := range c.workers {
		ids = append(ids, u)
	}
	byID := c.workers
	c.mu.RUnlock()
	if len(ids) == 0 {
		return nil, ""
	}
	order := rankWorkers(ids, key)
	home = order[0]
	now := c.now()
	var up, down []*worker
	for _, id := range order {
		w := byID[id]
		if w.br.demoted(now) {
			down = append(down, w)
		} else {
			up = append(up, w)
		}
	}
	return append(up, down...), home
}

// hedgeDelay reports the current straggler threshold and whether hedging
// is armed. Hedging disarms when the per-sweep retry budget is dry.
func (c *Coordinator) hedgeDelay() (time.Duration, bool) {
	if c.opts.DisableHedging {
		return 0, false
	}
	if c.opts.SweepRetryBudget >= 0 && c.retryBudget.Load() <= 0 {
		return 0, false
	}
	if c.lat.count() < c.opts.HedgeMinSamples {
		return 0, false
	}
	d := c.lat.quantile(c.opts.HedgeQuantile)
	if d < c.opts.HedgeMinDelay {
		d = c.opts.HedgeMinDelay
	}
	return d, true
}

// failover walks the ranked workers until one answers. Backpressure (429)
// is retried in place with the worker's own Retry-After hint before moving
// on; transport errors and 5xx move on immediately and feed the worker's
// circuit breaker. Serving a point anywhere but its home worker counts as
// one rebalance. Every worker after the first spends one unit of the
// per-sweep retry budget; a dry budget ends the walk.
func (c *Coordinator) failover(ctx context.Context, pt engine.RemotePoint, ranked []*worker, home string) ([]byte, error) {
	var errs []error
	for i, w := range ranked {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i > 0 && !c.spendRetry() {
			errs = append(errs, errRetryBudgetExhausted)
			break
		}
		body, err := c.attempt(ctx, pt, w)
		if err == nil {
			if w.url != home {
				c.m.rebalances.Add(1)
			}
			return body, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		errs = append(errs, fmt.Errorf("%s: %w", w.url, err))
	}
	return nil, fmt.Errorf("cluster: point %s failed on every worker: %w", pt.Label, errors.Join(errs...))
}

// attempt sends the point to one worker, absorbing bounded backpressure.
// The worker's circuit breaker observes the outcome: 200 closes it, a
// transport error or 5xx (re)opens it past the threshold, 503 trips it
// immediately (the worker said it is draining), and 429 saturation is
// neutral — backpressure is the worker protecting itself, not failing.
func (c *Coordinator) attempt(ctx context.Context, pt engine.RemotePoint, w *worker) ([]byte, error) {
	select {
	case w.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	w.inflight.Add(1)
	defer func() {
		w.inflight.Add(-1)
		<-w.slots
	}()

	probe := w.br.beginAttempt(c.now())
	backoffs := 0
	for {
		w.requests.Add(1)
		body, status, retryAfter, err := c.post(ctx, w.url+pt.Path, pt.Body)
		now := c.now()
		switch {
		case err != nil && ctx.Err() != nil:
			// The point's context ended — a lost hedge race being cancelled,
			// or the sweep shutting down. That judges nobody: the worker may
			// be mid-simulation and healthy, so the breaker stays put.
			w.br.neutral(probe)
			return nil, ctx.Err()
		case err != nil:
			w.failures.Add(1)
			c.m.failures.Add(1)
			if w.br.failure(probe, c.opts.FailureThreshold, c.opts.Cooldown, c.opts.MaxCooldown, now) {
				c.m.cooldowns.Add(1)
			}
			return nil, err
		case status == http.StatusOK:
			w.br.success(probe)
			return body, nil
		case status == http.StatusTooManyRequests && backoffs < c.opts.BackpressureRetries:
			if !c.spendRetry() {
				w.br.neutral(probe)
				return nil, fmt.Errorf("saturated (429), %w", errRetryBudgetExhausted)
			}
			backoffs++
			c.m.backpressure.Add(1)
			if !sleepCtx(ctx, backoffWait(retryAfter, backoffs, c.opts.MaxBackoff)) {
				w.br.neutral(probe)
				return nil, ctx.Err()
			}
		case status == http.StatusTooManyRequests:
			w.br.neutral(probe)
			return nil, fmt.Errorf("saturated after %d backoffs (429)", backoffs)
		case status == http.StatusServiceUnavailable:
			// Draining: the worker is leaving; don't count it as broken,
			// but stop routing to it for a moment and rehash now.
			w.br.trip(c.opts.Cooldown, c.opts.MaxCooldown, now)
			c.m.cooldowns.Add(1)
			return nil, fmt.Errorf("worker draining (503)")
		case status >= 500:
			w.failures.Add(1)
			c.m.failures.Add(1)
			if w.br.failure(probe, c.opts.FailureThreshold, c.opts.Cooldown, c.opts.MaxCooldown, now) {
				c.m.cooldowns.Add(1)
			}
			return nil, fmt.Errorf("status %d: %s", status, truncate(body, 200))
		default:
			// 4xx: the request is wrong everywhere; do not spread it.
			w.br.neutral(probe)
			return nil, &permanentError{fmt.Errorf("status %d: %s", status, truncate(body, 200))}
		}
	}
}

// post issues one HTTP request and classifies the response. A hit/miss
// X-Cache header from the worker feeds the affinity metrics.
func (c *Coordinator) post(ctx context.Context, url string, body []byte) (respBody []byte, status int, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode == http.StatusOK {
		switch resp.Header.Get("X-Cache") {
		case "hit":
			c.m.remoteHits.Add(1)
			c.workerFor(url).hits.Add(1)
		case "miss":
			c.m.remoteMisses.Add(1)
			c.workerFor(url).misses.Add(1)
		}
	}
	retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), c.now())
	return b, resp.StatusCode, retryAfter, nil
}

// parseRetryAfter interprets a Retry-After header per RFC 9110: either
// delay-seconds or an HTTP-date. Missing, malformed or negative values
// return 0, which backoffWait maps onto the doubling fallback schedule —
// a garbage header must never stall or zero out the backoff.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// backoffWait picks the n-th backpressure wait (n counts from 1): the
// worker's Retry-After hint when it gave a usable one, otherwise a
// doubling schedule seeded at a tenth of the cap. Either way the wait is
// clamped to the cap.
func backoffWait(hint time.Duration, n int, max time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		d = max / 10
		for i := 1; i < n; i++ {
			d *= 2
		}
	}
	if d > max {
		d = max
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// workerFor finds the worker owning a full endpoint URL (url is
// worker.url + path). Counters for workers that left the fleet mid-flight
// land on a throwaway.
func (c *Coordinator) workerFor(url string) *worker {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for u, w := range c.workers {
		if len(url) >= len(u) && url[:len(u)] == u {
			return w
		}
	}
	return &worker{}
}

// sleepCtx waits d or until the context ends; it reports false on
// cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
