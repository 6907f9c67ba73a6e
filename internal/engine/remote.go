package engine

import "context"

// Remote execution: the same plan/point/merge contract as the local worker
// pool, with the point's work done somewhere else. A RemotePoint carries no
// closure — it is pure data (an affinity key, an endpoint path, an opaque
// request body) that a Remote implementation ships to another machine. The
// cluster coordinator (internal/cluster) is the production Remote: it routes
// each point to a worker by rendezvous hashing on Key so repeated sweeps hit
// the worker that already cached the answer.
//
// The merge guarantee carries over unchanged: results are collected by point
// index, so the output of a remote plan is byte-identical at any client
// concurrency and any fleet size — routing, retries and hedging change which
// machine computes a byte slice, never the bytes or their order.

// RemotePoint is one unit of remote work.
type RemotePoint struct {
	// Label appears in diagnostics, like Point.Label.
	Label string
	// Key is the point's content address (the serve key the worker caches
	// its response under). Remotes route on it: equal keys land on the same
	// worker while the fleet is stable, which is what makes worker-side
	// result caches effective across repeated and overlapping sweeps.
	Key string
	// Path is the worker endpoint the request body is for
	// (e.g. "/v1/point" or "/v1/run").
	Path string
	// Body is the opaque request payload.
	Body []byte
}

// Remote runs one keyed request on another machine and returns the response
// body. Implementations own routing, retry and hedging; they must return
// the response bytes unmodified, because callers merge them positionally
// into byte-identical documents.
type Remote interface {
	Do(ctx context.Context, p RemotePoint) ([]byte, error)
}

// RemotePlan is an ordered list of remote points. Like Plan, order is the
// output order regardless of execution interleaving.
type RemotePlan struct {
	Name   string
	Points []RemotePoint
}

// NewRemotePlan creates an empty remote plan.
func NewRemotePlan(name string) *RemotePlan { return &RemotePlan{Name: name} }

// Add appends a point and returns its index.
func (p *RemotePlan) Add(pt RemotePoint) int {
	p.Points = append(p.Points, pt)
	return len(p.Points) - 1
}

// Len reports the number of points.
func (p *RemotePlan) Len() int { return len(p.Points) }

// Memo is a durable (or at least persistent-enough) map from a point's
// content address to the response bytes once served for it. Because
// remote points are content-addressed and workers are deterministic, a
// memoized body is not a stale approximation — it is the byte-identical
// answer, forever. The durable result store (internal/store) is the
// production Memo: as the coordinator's sweep journal it makes remote plans
// resumable across a client or coordinator crash.
type Memo interface {
	// Get returns the recorded body for a key.
	Get(key string) ([]byte, bool)
	// Put records a completed point. Implementations define durability;
	// an error fails the point — a sweep that silently loses its journal
	// is worse than one that stops.
	Put(key string, body []byte) error
}

// ExecuteRemoteAll fans the plan out over the remote with bounded client
// concurrency (Options.Workers bounds in-flight requests, not simulations)
// and collects response bodies and errors keyed by point index — the same
// contract as ExecuteAll. Cancellation, panic isolation and ordering all
// come from the local pool the remote calls run on.
func ExecuteRemoteAll(ctx context.Context, r Remote, p *RemotePlan, opts ...Options) ([][]byte, []error) {
	plan := NewPlan[[]byte]("remote/" + p.Name)
	for _, pt := range p.Points {
		pt := pt
		plan.Add(pt.Label, func() ([]byte, error) { return r.Do(ctx, pt) })
	}
	return ExecuteAllCtx(ctx, plan, Pick(opts...))
}
