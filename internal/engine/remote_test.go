package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// fakeRemote answers each point from a map, with optional per-key errors.
type fakeRemote struct {
	calls atomic.Int64
	fail  map[string]error
}

func (f *fakeRemote) Do(_ context.Context, p RemotePoint) ([]byte, error) {
	f.calls.Add(1)
	if err, ok := f.fail[p.Key]; ok {
		return nil, err
	}
	return []byte("body:" + p.Key), nil
}

func remotePlan(n int) *RemotePlan {
	p := NewRemotePlan("t")
	for i := 0; i < n; i++ {
		p.Add(RemotePoint{Label: fmt.Sprintf("p%d", i), Key: fmt.Sprintf("k%d", i), Path: "/v1/point"})
	}
	return p
}

// TestClusterRemoteOrdering: bodies come back keyed by point index at every
// client concurrency — the byte-identical merge invariant.
func TestClusterRemoteOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		r := &fakeRemote{}
		bodies, errs := ExecuteRemoteAll(context.Background(), r, remotePlan(23), Options{Workers: workers})
		for i, b := range bodies {
			if errs[i] != nil {
				t.Fatalf("workers=%d point %d: %v", workers, i, errs[i])
			}
			if want := fmt.Sprintf("body:k%d", i); string(b) != want {
				t.Fatalf("workers=%d point %d = %q, want %q", workers, i, b, want)
			}
		}
		if got := r.calls.Load(); got != 23 {
			t.Fatalf("workers=%d: %d calls, want 23", workers, got)
		}
	}
}

// TestClusterRemoteErrorIsolation: a failing point fills only its own error
// slot; the other bodies survive.
func TestClusterRemoteErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	r := &fakeRemote{fail: map[string]error{"k3": boom}}
	bodies, errs := ExecuteRemoteAll(context.Background(), r, remotePlan(6), Options{Workers: 3})
	for i := range bodies {
		if i == 3 {
			if !errors.Is(errs[i], boom) {
				t.Fatalf("point 3 err = %v, want boom", errs[i])
			}
			continue
		}
		if errs[i] != nil || string(bodies[i]) != fmt.Sprintf("body:k%d", i) {
			t.Fatalf("point %d = %q, %v", i, bodies[i], errs[i])
		}
	}
}

// TestClusterRemoteCancellation: a cancelled context stamps undispatched
// points with ctx.Err without calling the remote for them.
func TestClusterRemoteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &fakeRemote{}
	_, errs := ExecuteRemoteAll(ctx, r, remotePlan(5), Options{Workers: 1})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("point %d err = %v, want canceled", i, err)
		}
	}
	if got := r.calls.Load(); got != 0 {
		t.Fatalf("remote called %d times after cancel, want 0", got)
	}
}
