package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestScheddOpenPoint wires an open-system arrival run through /v1/point:
// the response must carry the streaming summary, losslessly equal to what a
// local run computes.
func TestScheddOpenPoint(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()

	const body = `{"config":{"partition":4,"topology":"mesh","policy":"ts","arrival":{"process":"poisson","jobs":80,"load":0.6}}}`
	rr := postPoint(t, h, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("POST /v1/point: status %d, body %s", rr.Code, rr.Body)
	}
	got, err := DecodePointSummary(rr.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Open == nil {
		t.Fatalf("open run summary missing open section: %+v", got)
	}
	if got.Open.Jobs != 80 || got.Jobs != 80 {
		t.Errorf("jobs = %d/%d, want 80", got.Jobs, got.Open.Jobs)
	}

	spec := ConfigSpec{Partition: 4, Topology: "mesh", Policy: "ts",
		Arrival: &ArrivalSpec{Process: "poisson", Jobs: 80, Load: 0.6}}
	cfg, err := spec.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := PointSummaryFrom(res); !reflect.DeepEqual(got, want) {
		t.Errorf("wire summary differs from local run:\n got: %+v %+v\nwant: %+v %+v",
			got, got.Open, want, want.Open)
	}
}

// TestScheddConfigErrors400 is the field-addressed validation contract:
// every config-spec failure — whether caught at parse time or inside
// core.Run, on /v1/point or /v1/run — answers 400 with a body naming the
// offending field, never a 500.
func TestScheddConfigErrors400(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()

	cases := []struct {
		name, body, field string
	}{
		{"bad arrival load", `{"config":{"arrival":{"process":"poisson","load":1.5}}}`, "arrival.load"},
		{"trace on the wire", `{"config":{"arrival":{"process":"trace"}}}`, "arrival.process"},
		{"unknown arrival process", `{"config":{"arrival":{"process":"bursty"}}}`, "arrival.process"},
		{"arrival with fault", `{"config":{"arrival":{"process":"poisson"},"fault":{"node_mtbf_us":1000000,"node_mttr_us":1000}}}`, "fault"},
		{"partition does not divide", `{"config":{"partition":3}}`, "partition"},
		{"bad quantum", `{"config":{"quantum_us":-5}}`, "quantum_us"},
	}
	endpoints := []struct {
		name string
		post func(*testing.T, http.Handler, string) *httptest.ResponseRecorder
	}{{"point", postPoint}, {"run", postRun}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, ep := range endpoints {
				t.Run(ep.name, func(t *testing.T) {
					rr := ep.post(t, h, tc.body)
					if rr.Code != http.StatusBadRequest {
						t.Fatalf("status %d, body %s (want 400)", rr.Code, rr.Body)
					}
					var eb struct {
						Error string `json:"error"`
						Field string `json:"field"`
					}
					if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
						t.Fatalf("error body not JSON: %s", rr.Body)
					}
					if eb.Error == "" {
						t.Errorf("empty error message: %s", rr.Body)
					}
					if eb.Field != tc.field {
						t.Errorf("field = %q, want %q (body %s)", eb.Field, tc.field, rr.Body)
					}
				})
			}
		})
	}
}

// TestOpenSpecRoundTrip: SpecFromConfig and ToConfig invert each other for
// arrival configs, preserving the canonical hash the cluster routes on.
func TestOpenSpecRoundTrip(t *testing.T) {
	cfg := core.Config{
		PartitionSize: 4,
		Arrival: arrival.Spec{
			Kind:        arrival.Pareto,
			Jobs:        5000,
			Load:        0.7,
			ParetoAlpha: 1.8,
			ParetoCap:   sim.Time(2 * sim.Second),
			WidthSmall:  2,
			WidthLarge:  8,
		},
	}
	spec, err := SpecFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := spec.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := cfg.MustHash(), back.MustHash()
	if h1 != h2 {
		t.Errorf("round trip moved the hash: %s vs %s", h1, h2)
	}
	// Trace configs have no wire form.
	cfg.Arrival = arrival.Spec{Kind: arrival.Trace, TracePath: "x.jsonl"}
	if _, err := SpecFromConfig(cfg); err == nil {
		t.Error("trace config should not be wire-representable")
	}
}

// TestScheddErrorBodyJSON: WriteError renders a printable message exactly
// as the former %q formatting did, omits an empty field, and keeps a
// message with a control byte or a cut rune valid JSON.
func TestScheddErrorBodyJSON(t *testing.T) {
	for _, msg := range []string{"POST only", `unknown experiment "e99"`, `a\b <c> & d`, "naïve ρ=0.5"} {
		rr := httptest.NewRecorder()
		WriteError(rr, http.StatusBadRequest, msg, "")
		if want := fmt.Sprintf("{\"error\":%q}\n", msg); rr.Body.String() != want {
			t.Errorf("body %q, want %q", rr.Body, want)
		}
	}
	rr := httptest.NewRecorder()
	WriteError(rr, http.StatusBadRequest, "load out of range", "arrival.load")
	if want := `{"error":"load out of range","field":"arrival.load"}` + "\n"; rr.Body.String() != want {
		t.Errorf("field body %q, want %q", rr.Body, want)
	}
	rr = httptest.NewRecorder()
	WriteError(rr, http.StatusBadGateway, "bell \a and cut \xc3", "")
	var eb struct{ Error string }
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
		t.Fatalf("body is not JSON: %v\n%q", err, rr.Body)
	}
	if rr.Header().Get("Content-Type") != "application/json" || rr.Code != http.StatusBadGateway {
		t.Errorf("status %d, content type %q", rr.Code, rr.Header().Get("Content-Type"))
	}
}
