package sim

import "fmt"

// Aborted is the panic value a process unwinds with after Abort. Spawned
// bodies that support cancellation recover it, run their cleanup, and return;
// an unrecovered Aborted propagates out of the kernel loop like any other
// process panic, so aborting a process that does not expect it fails loudly.
type Aborted struct{}

func (Aborted) Error() string { return "sim: process aborted" }

// Proc is a simulated process: a Go function running on its own goroutine
// under the kernel's strict hand-off discipline. A Proc may park itself
// (Park, Sleep) and be woken by kernel-context code (Wake). Blocking
// primitives built on Park/Wake — CPU bursts, message receives, memory
// allocation — live in higher-level packages.
type Proc struct {
	k    *Kernel
	id   int
	name string

	resume chan struct{}
	// wake is the resume event Wake schedules, built once at Spawn so a wake
	// allocates nothing.
	wake func()

	parked     bool
	parkReason string
	permit     bool // a Wake arrived while the process was running
	kill       bool
	aborted    bool
	finished   bool
}

// Spawn creates a simulated process and schedules its body to start at the
// current simulated time. The body runs in kernel context under the hand-off
// discipline: it may call any kernel API, park itself, and wake other procs.
// Spawn may be called from kernel context or before Run.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	if k.stopped {
		panic("sim: Spawn after Shutdown")
	}
	k.nextPID++
	p := &Proc{
		k:      k,
		id:     k.nextPID,
		name:   name,
		resume: make(chan struct{}),
	}
	p.wake = func() {
		if p.finished {
			return
		}
		p.resume <- struct{}{}
		<-k.yield
	}
	k.procs[p] = struct{}{}
	k.AfterFunc(0, func() {
		go p.run(body)
		// Hand control to the new goroutine and wait for it to park, finish,
		// or panic.
		p.resume <- struct{}{}
		<-k.yield
	})
	return p
}

func (p *Proc) run(body func(*Proc)) {
	<-p.resume
	defer func() {
		r := recover()
		p.finished = true
		p.parked = false
		delete(p.k.procs, p)
		if r != nil {
			if _, isKill := r.(killSentinel); !isKill {
				// Propagate real panics to the kernel loop.
				p.k.procPanic = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
				p.k.panicking = true
			}
		}
		p.k.yield <- struct{}{}
	}()
	if p.kill {
		panic(killSentinel{})
	}
	body(p)
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the kernel-unique process id (assigned in spawn order).
func (p *Proc) ID() int { return p.id }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Park blocks the process until another piece of kernel-context code calls
// Wake on it. If a Wake was delivered while the process was running (a
// "permit"), Park consumes it and returns immediately. The reason string is
// reported by Kernel.ParkedProcs for stall diagnosis. Park runs on every
// blocking call of every process, so callers pass a constant (or a string
// built once ahead of time), never one formatted per call.
//
// Park must only be called by the process itself.
func (p *Proc) Park(reason string) {
	if p.aborted {
		panic(Aborted{})
	}
	if p.permit {
		p.permit = false
		return
	}
	p.parked = true
	p.parkReason = reason
	p.k.yield <- struct{}{}
	<-p.resume
	if p.kill {
		panic(killSentinel{})
	}
	if p.aborted {
		panic(Aborted{})
	}
}

// Abort requests the process to unwind with an Aborted panic at its next
// park point (or immediately on resume if it is parked now). Blocking
// primitives deregister their wait state during the unwind, so an aborted
// process leaves no dangling waiters. Abort must be called from kernel
// context; aborting a finished process is a no-op.
func (p *Proc) Abort() {
	if p.finished || p.aborted {
		return
	}
	p.aborted = true
	if p.parked {
		p.Wake()
	}
}

// Aborting reports whether an abort has been requested for the process.
func (p *Proc) Aborting() bool { return p.aborted }

// Wake makes a parked process runnable again. The process resumes via a
// kernel event at the current simulated time (after already-queued events).
// If the process is not parked, the wake is remembered as a permit so the
// next Park returns immediately. A Wake arriving between a previous Wake and
// the resume event also becomes a permit, so Park can return spuriously;
// callers must re-check their wait condition in a loop around Park.
//
// Wake must be called from kernel context (an event callback or another
// process body), never from outside the simulation.
func (p *Proc) Wake() {
	if p.finished {
		return
	}
	if !p.parked {
		p.permit = true
		return
	}
	p.parked = false
	p.parkReason = ""
	p.k.AfterFunc(0, p.wake)
}

// Sleep suspends the process for d microseconds of simulated time. Even a
// zero-length sleep yields through the event queue so other events scheduled
// for the current time get to run. Sleep is robust against spurious wakes
// (Wakes aimed at a different wait of the same process): it re-parks until
// its own timer has fired.
func (p *Proc) Sleep(d Time) {
	done := false
	p.k.AfterFunc(d, func() {
		done = true
		p.Wake()
	})
	for !done {
		p.Park("sleep")
	}
}

// Finished reports whether the process body has returned.
func (p *Proc) Finished() bool { return p.finished }
