package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// Robustness tests for the crash-safe fabric: per-sweep retry budgets,
// RFC 9110 Retry-After handling, journal-backed resume through the
// coordinator, and the hedging path not leaking goroutines or slots.

// TestClusterRetryAfterParsing: delay-seconds, HTTP-dates and garbage, per
// RFC 9110 — garbage falls back to 0 so backoffWait takes the doubling
// schedule instead of stalling or spinning.
func TestClusterRetryAfterParsing(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{"0", 0},
		{"-5", 0},
		{now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0}, // date in the past
		{"soon", 0},
		{"12.5", 0}, // fractional seconds are not delay-seconds
		{"\x00\xff garbage", 0},
	} {
		if got := parseRetryAfter(tc.header, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestClusterBackoffFallbackDoubles: with no usable hint the waits double
// from a tenth of the cap; with a hint the hint wins, clamped to the cap.
func TestClusterBackoffFallbackDoubles(t *testing.T) {
	max := 800 * time.Millisecond
	for n, want := range map[int]time.Duration{
		1: 80 * time.Millisecond,
		2: 160 * time.Millisecond,
		3: 320 * time.Millisecond,
		4: 640 * time.Millisecond,
		5: 800 * time.Millisecond, // clamped
	} {
		if got := backoffWait(0, n, max); got != want {
			t.Errorf("backoffWait(0, %d) = %v, want %v", n, got, want)
		}
	}
	if got := backoffWait(50*time.Millisecond, 3, max); got != 50*time.Millisecond {
		t.Errorf("hint ignored: %v", got)
	}
	if got := backoffWait(time.Hour, 1, max); got != max {
		t.Errorf("hint not clamped: %v", got)
	}
	if got := backoffWait(0, 1, 0); got <= 0 {
		t.Errorf("degenerate cap produced non-positive wait %v", got)
	}
}

// TestClusterRetryBudgetExhaustion: a fleet that fails everything burns the
// budget and then fails fast with the typed error instead of retrying
// forever; a later healthy-path point is unaffected on its first attempt.
func TestClusterRetryBudgetExhaustion(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("fine"))
	}))
	t.Cleanup(ok.Close)

	c := New(Options{
		Workers:          []string{dead.URL, ok.URL},
		DisableHedging:   true,
		SweepRetryBudget: 1,
		// Keep the breaker out of the picture: with a low threshold it
		// would demote the dead worker and hand the healthy one the
		// budget-free first attempt — correct, but not what this test pins.
		FailureThreshold: 1000,
	})
	// Force the dead worker first in the ranking for a chosen key.
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("budget-%d", i)
		if rankWorkers([]string{dead.URL, ok.URL}, k)[0] == dead.URL {
			key = k
			break
		}
	}

	// First point: primary fails, the single budget unit buys the failover
	// to the healthy worker.
	body, err := c.Do(context.Background(), engine.RemotePoint{Label: "p1", Key: key, Path: "/x", Body: nil})
	if err != nil {
		t.Fatalf("first point should survive on budget: %v", err)
	}
	if !bytes.Equal(body, []byte("fine")) {
		t.Errorf("body = %q", body)
	}
	if left := c.Snapshot().RetryLeft; left != 0 {
		t.Fatalf("RetryLeft = %d, want 0", left)
	}

	// Second point homed to the dead worker: budget is dry, so the walk
	// ends after the primary with the typed exhaustion error.
	_, err = c.Do(context.Background(), engine.RemotePoint{Label: "p2", Key: key, Path: "/x", Body: nil})
	if err == nil {
		t.Fatal("Do succeeded with a dry budget and a dead home")
	}
	if !errors.Is(err, errRetryBudgetExhausted) {
		t.Errorf("error %v does not wrap errRetryBudgetExhausted", err)
	}

	// A point homed to the healthy worker still completes: the budget gates
	// extra attempts, never the first.
	okKey := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("ok-%d", i)
		if rankWorkers([]string{dead.URL, ok.URL}, k)[0] == ok.URL {
			okKey = k
			break
		}
	}
	if _, err := c.Do(context.Background(), engine.RemotePoint{Label: "p3", Key: okKey, Path: "/x", Body: nil}); err != nil {
		t.Errorf("healthy-homed point failed on dry budget: %v", err)
	}
	if snap := c.Snapshot(); snap.RetrySpent != 1 {
		t.Errorf("RetrySpent = %d, want 1", snap.RetrySpent)
	}
}

// TestClusterUnlimitedRetryBudget: negative budget never exhausts.
func TestClusterUnlimitedRetryBudget(t *testing.T) {
	c := New(Options{Workers: []string{"http://invalid"}, SweepRetryBudget: -1})
	for i := 0; i < 2000; i++ {
		if !c.spendRetry() {
			t.Fatal("unlimited budget ran dry")
		}
	}
	if left := c.Snapshot().RetryLeft; left != -1 {
		t.Errorf("RetryLeft = %d, want -1", left)
	}
}

// TestClusterJournalResume is coordinator crash-resume in miniature: sweep
// once against a real fleet with a journal, then rebuild the coordinator
// (same journal directory, zero workers — "everything is down") and sweep
// again. Every point must come back byte-identical from the journal alone.
func TestClusterJournalResume(t *testing.T) {
	w := newWorker(t)
	cfgs := grid(t)
	dir := t.TempDir()

	first := New(Options{Workers: []string{w.URL}, DisableHedging: true, Memo: openJournal(t, dir)})
	want := sweepBodies(t, first, cfgs, 4)
	snap := first.Snapshot()
	if snap.JournalAppends != int64(len(cfgs)) || snap.JournalHits != 0 {
		t.Errorf("first sweep journal: appends=%d hits=%d, want %d/0",
			snap.JournalAppends, snap.JournalHits, len(cfgs))
	}

	second := New(Options{Memo: openJournal(t, dir), DisableHedging: true}) // no workers at all
	got := sweepBodies(t, second, cfgs, 4)
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("point %d differs on resume:\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
	snap = second.Snapshot()
	if snap.JournalHits != int64(len(cfgs)) || snap.JournalAppends != 0 {
		t.Errorf("resume journal: hits=%d appends=%d, want %d/0",
			snap.JournalHits, snap.JournalAppends, len(cfgs))
	}
	if snap.Points != int64(len(cfgs)) {
		t.Errorf("resume points = %d, want %d", snap.Points, len(cfgs))
	}
	if snap.JournalEntries != int64(len(cfgs)) {
		t.Errorf("journal entries = %d, want %d", snap.JournalEntries, len(cfgs))
	}
}

// TestClusterJournalPartialResume: a journal holding only some points
// replays those and routes the remainder — the exact resume split, with no
// duplicate appends for replayed points.
func TestClusterJournalPartialResume(t *testing.T) {
	w := newWorker(t)
	cfgs := grid(t)
	dir := t.TempDir()

	half := New(Options{Workers: []string{w.URL}, DisableHedging: true, Memo: openJournal(t, dir)})
	want := sweepBodies(t, half, cfgs[:3], 1)

	resumed := New(Options{Workers: []string{w.URL}, DisableHedging: true, Memo: openJournal(t, dir)})
	all := sweepBodies(t, resumed, cfgs, 1)
	for i := range want {
		if !bytes.Equal(all[i], want[i]) {
			t.Errorf("replayed point %d differs", i)
		}
	}
	snap := resumed.Snapshot()
	if snap.JournalHits != 3 {
		t.Errorf("JournalHits = %d, want 3", snap.JournalHits)
	}
	if snap.JournalAppends != int64(len(cfgs)-3) {
		t.Errorf("JournalAppends = %d, want %d", snap.JournalAppends, len(cfgs)-3)
	}
	// The journal must hold every point exactly once across both runs.
	records, err := store.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(cfgs) {
		t.Errorf("journal has %d records, want %d", len(records), len(cfgs))
	}
}

// TestClusterHedgeNoLeak is the leak detector around the hedged Do path
// (runner.go RunConfig funnels into it): after hedge races resolve — wins
// and losses both — every worker slot drains and the goroutine count
// returns to baseline, because the per-point context cancels the losing
// leg instead of letting it run out its HTTP timeout.
func TestClusterHedgeNoLeak(t *testing.T) {
	var slowHits atomic.Int64
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slowHits.Add(1)
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
		w.Write([]byte(`{"who":"slow"}`))
	}))
	t.Cleanup(slow.Close)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"who":"fast"}`))
	}))
	t.Cleanup(fast.Close)
	fleet := []string{slow.URL, fast.URL}

	c := New(Options{Workers: fleet, HedgeMinSamples: 1, HedgeMinDelay: time.Millisecond})
	c.lat.record(time.Millisecond)

	before := runtime.NumGoroutine()
	// Many hedged points homed on the straggler: each primary parks on the
	// slow worker until its hedge wins and the per-point cancel fires. A
	// lost race must not trip the slow worker's breaker (cancellation says
	// nothing about its health), so every one of these points hedges.
	wins := int64(0)
	for i := 0; wins < 8; i++ {
		if i >= 2000 {
			t.Fatalf("hedges stopped winning after %d: %+v", wins, c.Snapshot())
		}
		key := fmt.Sprintf("leak-%d", i)
		if rankWorkers(fleet, key)[0] != slow.URL {
			continue
		}
		if _, err := c.Do(context.Background(), engine.RemotePoint{Label: key, Key: key, Path: "/x", Body: []byte("{}")}); err != nil {
			t.Fatal(err)
		}
		wins = c.Snapshot().HedgeWins
	}
	close(release)

	// Losing legs tear down via context cancellation; give them a moment.
	// Idle keep-alive connections are closed so their transport goroutines
	// don't masquerade as leaks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.opts.Client.CloseIdleConnections()
		var inflight int64
		for _, w := range c.Snapshot().Workers {
			inflight += w.Inflight
		}
		leaked := runtime.NumGoroutine() - before
		if inflight == 0 && leaked <= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hedge legs leaked: inflight=%d goroutines=+%d", inflight, leaked)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if slowHits.Load() == 0 {
		t.Fatal("test never exercised the slow primary")
	}
}
