package chaosharness

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// TestChaosCoordinatorCrashResume is the headline: a sweep survives a
// worker SIGKILL, a coordinator SIGKILL + restart over the same journal,
// and a second worker SIGKILL — with every point byte-identical to a
// clean single-worker run and the journal ending with every point
// exactly once.
func TestChaosCoordinatorCrashResume(t *testing.T) {
	requireChaos(t)
	chaosSeed(t) // logged for parity with the seeded tests; this one's chaos is scripted

	pts := sweepPoints(t, 24)
	want := baselineBodies(t, pts)

	journalDir := t.TempDir()
	coordAddr := freeAddr(t)
	coordURL := "http://" + coordAddr
	// A short lease makes the fleet converge quickly after each murder:
	// renew (and re-register after a coordinator restart) every ~333ms.
	coord := startProc(t, "coordinator",
		"-coordinate", "-addr", coordAddr, "-journal", journalDir, "-lease-ttl", "1s")
	waitHealthy(t, coordURL)

	w1 := startProc(t, "worker1", "-addr", freeAddr(t), "-worker", "-coordinator", coordURL)
	w2 := startProc(t, "worker2", "-addr", freeAddr(t), "-worker", "-coordinator", coordURL)
	waitWorkers(t, coordURL, 2)

	got := make(map[string][]byte, len(pts))
	var mu sync.Mutex
	run := func(from, to int) {
		t.Helper()
		if err := pump(coordURL, pts[from:to], 4, got, &mu); err != nil {
			t.Fatalf("points %d..%d: %v", from, to, err)
		}
	}

	// Phase 1: healthy fleet.
	run(0, 8)

	// Phase 2: worker1 dies without a goodbye. Failover + the lease sweep
	// must reroute everything to worker2.
	w1.kill()
	run(8, 12)
	w1.restart() // re-registers on boot
	waitWorkers(t, coordURL, 2)

	// Phase 3: the coordinator is SIGKILLed while points are in flight,
	// then restarted on the same address over the same journal. Clients
	// retry through the outage; completed points must replay from the
	// journal, not recompute.
	phaseErr := make(chan error, 1)
	go func() { phaseErr <- pump(coordURL, pts[12:18], 4, got, &mu) }()
	time.Sleep(300 * time.Millisecond)
	coord.kill()
	coord.restart()
	waitHealthy(t, coordURL)
	if err := <-phaseErr; err != nil {
		t.Fatalf("points 12..18 across coordinator crash: %v", err)
	}
	waitWorkers(t, coordURL, 2)

	// Phase 4: worker2's turn to die.
	w2.kill()
	run(18, 24)
	w2.restart()
	waitWorkers(t, coordURL, 2)

	// Byte-identity: chaos may change who computed each point, never the
	// bytes the client got.
	for _, pt := range pts {
		if !bytes.Equal(got[pt.key], want[pt.key]) {
			t.Errorf("point %.12s: chaos body differs from clean run\n got: %.200s\nwant: %.200s",
				pt.key, got[pt.key], want[pt.key])
		}
	}

	// Exactly-once journal audit: every point durably recorded once, no
	// stragglers, no duplicates, every record verifying and byte-identical
	// to the clean run — the coordinator crash included.
	records, err := store.Scan(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int, len(records))
	for _, r := range records {
		seen[r.Key]++
		if !bytes.Equal(r.Body, want[r.Key]) {
			t.Errorf("journal record %.12s differs from the clean run", r.Key)
		}
	}
	for _, pt := range pts {
		if seen[pt.key] != 1 {
			t.Errorf("journal records point %.12s %d times, want exactly 1", pt.key, seen[pt.key])
		}
	}
	if len(records) != len(pts) {
		t.Errorf("journal has %d records, want %d", len(records), len(pts))
	}

	// The restarted coordinator's metrics must account for the full sweep.
	metrics := scrape(t, coordURL+"/metrics")
	if want := fmt.Sprintf("cluster_journal_entries %d\n", len(pts)); !strings.Contains(metrics, want) {
		t.Errorf("metrics missing %q", strings.TrimSpace(want))
	}
	if !strings.Contains(metrics, "cluster_workers 2\n") {
		t.Error("metrics missing cluster_workers 2")
	}
}

// TestChaosFaultyNetwork puts a misbehaving proxy between the
// coordinator and one worker: seeded connection resets and latency
// spikes on that path, while a second worker stays clean. The sweep
// must complete byte-identical to the clean run — the breaker and
// failover absorb the faults.
func TestChaosFaultyNetwork(t *testing.T) {
	requireChaos(t)
	seed := chaosSeed(t)

	pts := sweepPoints(t, 16)
	want := baselineBodies(t, pts)

	coordAddr := freeAddr(t)
	coordURL := "http://" + coordAddr
	startProc(t, "coordinator", "-coordinate", "-addr", coordAddr, "-lease-ttl", "1s")
	waitHealthy(t, coordURL)

	// worker1 serves on its real address but advertises the proxy, so
	// every routed request crosses the fault plane. Lease traffic is
	// worker→coordinator and stays clean — the worker looks alive while
	// its data path burns.
	w1Addr := freeAddr(t)
	proxy := newFaultProxy(t, w1Addr, seed, 0.25, 0.5, 60*time.Millisecond)
	startProc(t, "worker1", "-addr", w1Addr, "-worker", "-coordinator", coordURL,
		"-advertise", "http://"+proxy.addr())
	startProc(t, "worker2", "-addr", freeAddr(t), "-worker", "-coordinator", coordURL)
	waitWorkers(t, coordURL, 2)

	got := make(map[string][]byte, len(pts))
	var mu sync.Mutex
	if err := pump(coordURL, pts, 4, got, &mu); err != nil {
		t.Fatalf("sweep through faulty network: %v", err)
	}
	for _, pt := range pts {
		if !bytes.Equal(got[pt.key], want[pt.key]) {
			t.Errorf("point %.12s: body differs under network faults", pt.key)
		}
	}
	// Coverage: the forced RSTs may trip worker1's breaker so early that
	// the whole sweep lands on worker2 before the cooldown expires. Keep
	// repeating the (now cached, so cheap) sweep until the breaker's
	// half-open probe survives the proxy and worker1 serves again — the
	// recovery path is as much the point as the faults.
	throwaway := make(map[string][]byte, len(pts))
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, passed := proxy.report(); passed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Error("fault proxy passed no traffic — worker1 never recovered through the fault plane")
			break
		}
		time.Sleep(500 * time.Millisecond)
		if err := pump(coordURL, pts, 4, throwaway, &mu); err != nil {
			t.Fatalf("repeat sweep: %v", err)
		}
	}
	resets, delays, passed := proxy.report()
	t.Logf("fault proxy: %d resets, %d delays, %d passed through", resets, delays, passed)
	if resets == 0 {
		t.Error("fault proxy injected no resets — the RST path was never exercised")
	}
}

// TestChaosWarmStoreRestart: a worker gracefully drained over a tier-2
// store must answer the repeat sweep from warm cache after a restart —
// the acceptance bar is a >= 0.9 hit ratio, computed here from X-Cache
// headers and cross-checked against the store metrics.
func TestChaosWarmStoreRestart(t *testing.T) {
	requireChaos(t)

	pts := sweepPoints(t, 12)
	storeDir := t.TempDir()
	addr := freeAddr(t)
	w := startProc(t, "worker", "-addr", addr, "-store", storeDir)
	waitHealthy(t, "http://"+addr)

	first := make(map[string][]byte, len(pts))
	for _, pt := range pts {
		body, err := postUntilOK("http://"+addr, pt, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		first[pt.key] = body
	}

	// SIGTERM drain: in-flight work finishes, dirty cache entries flush to
	// the store, then the process exits.
	w.sigterm(20 * time.Second)
	w.restart()
	waitHealthy(t, "http://"+addr)

	hits := 0
	for _, pt := range pts {
		status, body, cache, err := postOnce("http://"+addr, pt)
		if err != nil || status != http.StatusOK {
			t.Fatalf("repeat point %.12s: status %d, %v", pt.key, status, err)
		}
		if cache == "hit" {
			hits++
		}
		if !bytes.Equal(body, first[pt.key]) {
			t.Errorf("point %.12s: post-restart body differs", pt.key)
		}
	}
	ratio := float64(hits) / float64(len(pts))
	t.Logf("post-restart repeat sweep: %d/%d hits (ratio %.2f)", hits, len(pts), ratio)
	if ratio < 0.9 {
		t.Errorf("post-restart hit ratio %.2f < 0.9", ratio)
	}

	metrics := scrape(t, "http://"+addr+"/metrics")
	if want := fmt.Sprintf("schedd_store_warmed_total %d\n", len(pts)); !strings.Contains(metrics, want) {
		t.Errorf("metrics missing %q", strings.TrimSpace(want))
	}
	if !strings.Contains(metrics, "schedd_store_bytes ") {
		t.Error("metrics missing schedd_store_bytes")
	}
}
