package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestStaleTimerHandleAfterRecycle: once an event fires and its slot is
// recycled for a new caller, the old Timer handle must be inert — Stop and
// Pending report false and the recycled event is untouched.
func TestStaleTimerHandleAfterRecycle(t *testing.T) {
	k := NewKernel(1)
	stale := k.After(5, func() {})
	k.Run() // fires; the event goes to the free list
	ran := false
	fresh := k.After(7, func() { ran = true }) // reuses the recycled slot
	if stale.Pending() {
		t.Error("stale handle reports pending")
	}
	if stale.Stop() {
		t.Error("stale Stop reports true")
	}
	if stale.At() != 0 {
		t.Errorf("stale At = %v, want 0", stale.At())
	}
	if !fresh.Pending() {
		t.Error("fresh timer should be pending")
	}
	k.Run()
	if !ran {
		t.Fatal("stale handle operations affected the recycled event")
	}
}

// TestZeroTimer: the zero Timer behaves like one that already fired.
func TestZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Pending() || tm.Stop() || tm.At() != 0 {
		t.Error("zero Timer should be inert")
	}
}

// TestStopSameTimeEvent cancels an event sitting on the same-timestamp FIFO
// (not the heap) and checks its neighbours are unaffected.
func TestStopSameTimeEvent(t *testing.T) {
	k := NewKernel(1)
	ran, cancelledRan := false, false
	k.After(5, func() {
		tm := k.After(0, func() { cancelledRan = true })
		k.After(0, func() { ran = true })
		if !tm.Stop() {
			t.Error("Stop on a same-time event should report true")
		}
		if tm.Pending() {
			t.Error("stopped same-time event still pending")
		}
	})
	k.Run()
	if cancelledRan {
		t.Error("cancelled same-time event ran")
	}
	if !ran {
		t.Error("sibling same-time event did not run")
	}
}

// TestSameTimeBurstOrder: a burst of zero-delay events fires in schedule
// order, after every event already queued for the same instant.
func TestSameTimeBurstOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.After(10, func() {
		for i := 0; i < 100; i++ {
			i := i
			k.After(0, func() { order = append(order, i) })
		}
	})
	k.After(10, func() { order = append(order, -1) }) // older seq: runs before the burst
	k.Run()
	want := make([]int, 0, 101)
	want = append(want, -1)
	for i := 0; i < 100; i++ {
		want = append(want, i)
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want -1 then 0..99", order)
	}
}

// TestPendingEventsCounter: the O(1) live-event counter agrees with
// schedule/Stop/fire activity, including double Stops.
func TestPendingEventsCounter(t *testing.T) {
	k := NewKernel(1)
	tms := make([]Timer, 0, 10)
	for i := 0; i < 10; i++ {
		tms = append(tms, k.After(Time(i), func() {})) // i==0 exercises the FIFO
	}
	if got := k.PendingEvents(); got != 10 {
		t.Fatalf("PendingEvents = %d, want 10", got)
	}
	for i := 0; i < 3; i++ {
		if !tms[i].Stop() {
			t.Fatalf("Stop %d failed", i)
		}
	}
	if got := k.PendingEvents(); got != 7 {
		t.Fatalf("PendingEvents = %d after 3 stops, want 7", got)
	}
	tms[0].Stop() // double Stop must not double-decrement
	if got := k.PendingEvents(); got != 7 {
		t.Fatalf("PendingEvents = %d after double stop, want 7", got)
	}
	k.Run()
	if got := k.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents = %d after drain, want 0", got)
	}
}

// TestScheduleCancelFuzz drives randomized schedule/cancel interleavings —
// including scheduling and cancelling from inside callbacks, which is where
// pooled events get recycled mid-run — against a simple model: every
// non-cancelled event fires exactly once, in (time, schedule-order) order.
func TestScheduleCancelFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		k := NewKernel(1)
		type rec struct {
			id        int
			at        Time
			cancelled bool
		}
		var model []*rec
		var timers []Timer
		var fired []int
		nextID := 0

		cancelRandom := func() {
			if len(timers) == 0 {
				return
			}
			j := rng.Intn(len(timers))
			if timers[j].Stop() {
				model[j].cancelled = true
			}
		}
		var schedule func(depth int)
		schedule = func(depth int) {
			id := nextID
			nextID++
			at := k.Now() + Time(rng.Intn(50))
			model = append(model, &rec{id: id, at: at})
			timers = append(timers, k.At(at, func() {
				fired = append(fired, id)
				if depth < 3 && rng.Intn(3) == 0 {
					schedule(depth + 1)
				}
				if rng.Intn(3) == 0 {
					cancelRandom()
				}
			}))
		}
		for i := 0; i < 40; i++ {
			schedule(0)
			if rng.Intn(4) == 0 {
				cancelRandom()
			}
		}
		k.Run()

		type pair struct {
			at Time
			id int
		}
		var pairs []pair
		for _, r := range model {
			if !r.cancelled {
				pairs = append(pairs, pair{r.at, r.id})
			}
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].at != pairs[j].at {
				return pairs[i].at < pairs[j].at
			}
			return pairs[i].id < pairs[j].id
		})
		want := make([]int, len(pairs))
		for i, p := range pairs {
			want[i] = p.id
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("trial %d: fired = %v, want %v", trial, fired, want)
		}
		if k.PendingEvents() != 0 {
			t.Fatalf("trial %d: %d events pending after drain", trial, k.PendingEvents())
		}
	}
}

// TestSleepAllocs pins what one Sleep costs the heap: its timer callback and
// the flag that callback sets. The timer event is pooled and the wake reuses
// the resume event built at Spawn, so a park reason formatted per call, or
// any other per-call allocation on the park/wake path, fails here.
func TestSleepAllocs(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(5 * Millisecond)
		}
	})
	k.RunUntil(0)
	limit := k.Now()
	allocs := testing.AllocsPerRun(100, func() {
		limit += 5 * Millisecond
		k.RunUntil(limit)
	})
	if allocs > 2 {
		t.Errorf("Sleep allocates %.1f times per call, want at most 2", allocs)
	}
}
