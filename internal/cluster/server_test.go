package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestClusterServerLifecycle drives the whole coordinator HTTP face: lease
// protocol in, affinity proxy out, byte-identical to asking the worker
// directly.
func TestClusterServerLifecycle(t *testing.T) {
	workerTS := newWorker(t)

	coord := New(Options{DisableHedging: true})
	cs := NewServer(ServerOptions{Coordinator: coord, LeaseTTL: time.Minute, Logger: discardLogger()})
	t.Cleanup(cs.Close)
	front := httptest.NewServer(cs.Handler())
	t.Cleanup(front.Close)
	client := &http.Client{Timeout: 30 * time.Second}

	const runBody = `{"config":{"partition":4,"topology":"mesh","policy":"ts"}}`
	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Post(front.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	// Empty fleet: the proxy refuses rather than hangs.
	if resp, _ := post("/v1/run", runBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("proxy with no workers: status %d, want 503", resp.StatusCode)
	}

	// The worker-side registration client against the real endpoints.
	ttl, err := RegisterWorker(context.Background(), client, front.URL, workerTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	if ttl != time.Minute {
		t.Errorf("lease ttl = %v, want 1m", ttl)
	}
	listWorkers := func() []string {
		t.Helper()
		resp, err := client.Get(front.URL + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Workers []string `json:"workers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Workers
	}
	if ws := listWorkers(); len(ws) != 1 || ws[0] != workerTS.URL {
		t.Fatalf("workers = %v, want [%s]", ws, workerTS.URL)
	}

	// Proxied and direct answers are byte-identical — the proxy computes the
	// same content address the worker caches under.
	resp, proxied := post("/v1/run", runBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied run: status %d body %s", resp.StatusCode, proxied)
	}
	direct, err := client.Post(workerTS.URL+"/v1/run", "application/json", strings.NewReader(runBody))
	if err != nil {
		t.Fatal(err)
	}
	directBody, _ := io.ReadAll(direct.Body)
	direct.Body.Close()
	if direct.Header.Get("X-Cache") != "hit" {
		t.Errorf("direct request after proxy was %q, want hit (same cache key)", direct.Header.Get("X-Cache"))
	}
	if !bytes.Equal(proxied, directBody) {
		t.Errorf("proxied body differs from direct body:\nproxy:  %s\ndirect: %s", proxied, directBody)
	}

	// Malformed requests are rejected at the proxy with 400, not shipped.
	if resp, _ := post("/v1/point", `{"config":{"policy":"bogus"}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed point: status %d, want 400", resp.StatusCode)
	}
	// A config-spec failure names its field, as schedd's own answer does.
	if resp, body := post("/v1/point", `{"config":{"arrival":{"process":"bursty"}}}`); resp.StatusCode != http.StatusBadRequest ||
		!bytes.Contains(body, []byte(`"field":"arrival.process"`)) {
		t.Errorf("bad arrival process: status %d body %s, want 400 naming arrival.process", resp.StatusCode, body)
	}

	// Renewing an unknown lease is a 404 telling the worker to re-register.
	if resp, _ := post("/v1/workers/renew", `{"addr":"http://ghost:1"}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("renew unknown: status %d, want 404", resp.StatusCode)
	}
	// A non-URL addr is rejected.
	if resp, _ := post("/v1/workers/register", `{"addr":"not-a-url"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("register bad addr: status %d, want 400", resp.StatusCode)
	}

	// The metrics surface shows the fleet and the routed point.
	mresp, err := client.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"cluster_workers 1",
		"cluster_points_total 1",
		"cluster_worker_requests_total{worker=\"" + workerTS.URL + "\"} 1",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, mb)
		}
	}

	// Graceful goodbye: deregistration empties the routing table at once.
	DeregisterWorker(client, front.URL, workerTS.URL)
	if ws := listWorkers(); len(ws) != 0 {
		t.Errorf("workers after deregister = %v, want none", ws)
	}
	if resp, _ := post("/v1/run", runBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("proxy after deregister: status %d, want 503", resp.StatusCode)
	}
}

// TestClusterProxyRelaysWorkerErrorAsJSON: a worker's 400 body is relayed
// cut to 200 bytes, which can split a multi-byte rune; the proxy's error
// body must still be valid JSON.
func TestClusterProxyRelaysWorkerErrorAsJSON(t *testing.T) {
	body := strings.Repeat("x", 199) + "é" + strings.Repeat("y", 99) // é spans bytes 199-200
	if len(body) != 300 {
		t.Fatalf("worker body is %d bytes, want 300", len(body))
	}
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, body)
	}))
	t.Cleanup(worker.Close)

	coord := New(Options{DisableHedging: true})
	cs := NewServer(ServerOptions{Coordinator: coord, LeaseTTL: time.Minute, Logger: discardLogger()})
	t.Cleanup(cs.Close)
	front := httptest.NewServer(cs.Handler())
	t.Cleanup(front.Close)
	client := &http.Client{Timeout: 30 * time.Second}
	if _, err := RegisterWorker(context.Background(), client, front.URL, worker.URL); err != nil {
		t.Fatal(err)
	}

	resp, err := client.Post(front.URL+"/v1/run", "application/json",
		strings.NewReader(`{"config":{"partition":4,"topology":"mesh","policy":"ts"}}`))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, got)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(got, &eb); err != nil {
		t.Fatalf("proxy error body is not JSON: %v\n%q", err, got)
	}
	if !strings.Contains(eb.Error, strings.Repeat("x", 199)) {
		t.Errorf("relayed error lost the worker's message: %q", eb.Error)
	}
}

// TestClusterConfigPointKeyMatchesProxy: a point sent by a -cluster tool
// and the same body sent through the coordinator's proxy route to the same
// worker, under the key the worker caches it by.
func TestClusterConfigPointKeyMatchesProxy(t *testing.T) {
	for _, cfg := range grid(t) {
		pt, err := ConfigPoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		key, _, err := requestKey(pt.Path, pt.Body)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Key != key {
			t.Errorf("%s: ConfigPoint key %.12s, proxy key %.12s", pt.Label, pt.Key, key)
		}
	}
}
