package engine

// Warm-fork sweep execution: detect shared-prefix structure in a Grid plan
// and run each shared prefix once instead of once per point.
//
// A Grid's innermost dimensions — quanta, seeds, quantum policies, queue
// orders — are exactly the knobs core.Divergence can apply at a fork
// instant. Points that agree on every other (prefix-defining) dimension
// therefore share the whole simulation up to the fork point; NewForkSweep
// groups them, Prepare runs each group's prefix once (lazily, on first
// demand, so unused groups cost nothing and distinct groups warm up in
// parallel on the worker pool), and every point resumes from its group's
// snapshot with its own divergence.
//
// The byte-identity contract is inherited from core: each point's warm
// result equals core.RunForked(base, fp, div) — and, for a zero fork point,
// a plain core.Run of the point's own config — so a fork-sweep result
// slice is interchangeable with a cold one at any worker count.

import (
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
)

// ForkGroup is one shared-prefix equivalence class of a grid: the base
// configuration (the group's first point in enumeration order) plus the
// lazily prepared warm donor every member forks from.
type ForkGroup struct {
	base core.Config
	fp   core.ForkPoint

	once sync.Once
	warm *core.Warm
	err  error
}

// Base is the group's donor configuration — the first member in
// enumeration order, which every member's Divergence is relative to.
func (g *ForkGroup) Base() core.Config { return g.base }

// Warm returns the group's prepared donor, running the shared prefix on
// first call. Safe for concurrent use; concurrent callers of the same
// group block until the one Prepare finishes.
func (g *ForkGroup) Warm() (*core.Warm, error) {
	g.once.Do(func() { g.warm, g.err = core.Prepare(g.base, g.fp) })
	return g.warm, g.err
}

// ForkSweep is a grid analyzed for warm forking: every enumeration point
// bound to its shared-prefix group and the divergence that turns the
// group's base into the point.
type ForkSweep struct {
	fp     core.ForkPoint
	groups []*ForkGroup
	refs   []forkRef
}

type forkRef struct {
	group *ForkGroup
	div   core.Divergence
}

// NewForkSweep analyzes the grid's enumeration under the given fork point.
// Points are grouped by core.DivergenceBetween: a point joins the first
// group whose base it differs from only in divergible dimensions, else it
// starts a new group with itself as base. The Grid nesting invariant
// (divergible dimensions innermost) makes the points of one shared prefix
// a contiguous run of the enumeration; grouping does not depend on that —
// it also merges points that only *resolve* to divergible differences
// (say, two legacy policies forced onto one partition policy by an
// override), wherever they sit in the plan.
func NewForkSweep(g Grid, fp core.ForkPoint) *ForkSweep {
	fs := &ForkSweep{fp: fp}
	g.Enumerate(func(_ Dims, cfg core.Config) {
		for _, grp := range fs.groups {
			if div, err := core.DivergenceBetween(grp.base, cfg); err == nil {
				fs.refs = append(fs.refs, forkRef{grp, div})
				return
			}
		}
		grp := &ForkGroup{base: cfg, fp: fp}
		fs.groups = append(fs.groups, grp)
		fs.refs = append(fs.refs, forkRef{grp, core.Divergence{}})
	})
	return fs
}

// Len reports the number of points (the grid's product size).
func (fs *ForkSweep) Len() int { return len(fs.refs) }

// NumGroups reports the number of shared-prefix groups.
func (fs *ForkSweep) NumGroups() int { return len(fs.groups) }

// ForkPoint reports the fork point every group snapshots at.
func (fs *ForkSweep) ForkPoint() core.ForkPoint { return fs.fp }

// Group returns point i's shared-prefix group.
func (fs *ForkSweep) Group(i int) *ForkGroup { return fs.refs[i].group }

// Divergence returns point i's delta relative to its group's base.
func (fs *ForkSweep) Divergence(i int) core.Divergence { return fs.refs[i].div }

// Run executes point i as a warm fork: prepare the group's donor if this
// is its first member to run, then resume the snapshot under the point's
// divergence. Safe for concurrent use across points.
func (fs *ForkSweep) Run(i int) (*metrics.Result, error) {
	ref := fs.refs[i]
	w, err := ref.group.Warm()
	if err != nil {
		return nil, err
	}
	return w.Run(ref.div)
}

// Plan builds the engine plan that executes the whole sweep warm: one
// point per grid point, labeled by label, runnable at any worker count
// with byte-identical results.
func (fs *ForkSweep) Plan(name string, label func(i int) string) *Plan[*metrics.Result] {
	plan := NewPlan[*metrics.Result](name)
	for i := range fs.refs {
		i := i
		plan.Add(label(i), func() (*metrics.Result, error) { return fs.Run(i) })
	}
	return plan
}
