package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// POST /v1/fork is the warm-resume wire format of the distributed sweep
// fabric: a base configuration, the serialized whole-simulation snapshot
// taken at its fork point, and one divergence. The worker reconstructs the
// base system, installs the snapshot, applies the divergence and runs the
// continuation — answering with the exact PointSummary bytes /v1/point
// would produce for the same forked run, so sweep clients merge warm and
// cold points interchangeably.
//
// Responses are content-addressed like every other endpoint: the key binds
// the base config hash, the snapshot bytes and the divergence, so a
// repeated forked sweep routed back to the same worker (rendezvous hashing
// on the key does that) is a cache hit without resuming anything.

// ForkRequest is the POST /v1/fork body.
type ForkRequest struct {
	// Config is the base configuration the snapshot was taken from.
	Config ConfigSpec `json:"config"`
	// Snapshot is the core.Snapshot produced by Snapshot.Encode, embedded
	// verbatim. The worker verifies its config hash against Config.
	Snapshot json.RawMessage `json:"snapshot"`
	// Divergence is the per-point delta applied at the fork instant.
	Divergence DivergenceSpec `json:"divergence,omitempty"`
	// TimeoutMS bounds processing time, queueing included; 0 uses the
	// server default. Excluded from the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// DivergenceSpec is the wire form of core.Divergence (kinds as their flag
// spellings, times in µs — the ConfigSpec conventions).
type DivergenceSpec struct {
	SeedSet       bool   `json:"seed_set,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	QuantumUS     int64  `json:"quantum_us,omitempty"`
	QuantumPolicy string `json:"quantum_policy,omitempty"`
	QueueOrder    string `json:"queue_order,omitempty"`
}

// ToDivergence validates the spec into the core type.
func (d DivergenceSpec) ToDivergence() (core.Divergence, error) {
	div := core.Divergence{
		SeedSet:      d.SeedSet,
		Seed:         d.Seed,
		BasicQuantum: sim.Time(d.QuantumUS),
	}
	var err error
	if d.QuantumPolicy != "" {
		if div.QuantumPolicy, err = sched.ParseQuantumKind(d.QuantumPolicy); err != nil {
			return div, err
		}
	}
	if d.QueueOrder != "" {
		if div.QueueOrder, err = sched.ParseOrderKind(d.QueueOrder); err != nil {
			return div, err
		}
	}
	return div, nil
}

// DivergenceSpecFrom converts a core.Divergence to its wire form — the
// inverse of ToDivergence. Divergences derived by core.DivergenceBetween
// carry only resolved kinds, all of which have canonical spellings.
func DivergenceSpecFrom(div core.Divergence) DivergenceSpec {
	spec := DivergenceSpec{
		SeedSet:   div.SeedSet,
		Seed:      div.Seed,
		QuantumUS: int64(div.BasicQuantum),
	}
	if div.QuantumPolicy != sched.QuantumDefault {
		spec.QuantumPolicy = div.QuantumPolicy.String()
	}
	if div.QueueOrder != sched.OrderDefault {
		spec.QueueOrder = div.QueueOrder.String()
	}
	return spec
}

// parseForkRequest decodes and validates a fork request body.
func parseForkRequest(r io.Reader) (*ForkRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req ForkRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after JSON body")
	}
	if len(req.Snapshot) == 0 {
		return nil, fmt.Errorf("fork request without a snapshot")
	}
	return &req, nil
}

// EncodeForkRequest renders a fork request body deterministically
// (encoding/json keeps struct field order), so equal requests produce
// equal bytes and equal routing keys on any client.
func EncodeForkRequest(req ForkRequest) ([]byte, error) {
	return json.Marshal(req)
}

// ForkKey is the content address of a fork response: it binds the base
// config hash, the snapshot bytes (hashed — snapshots run to kilobytes)
// and the divergence spec, under the fork namespace. Exported so the
// cluster coordinator can compute the same key it routes on.
func ForkKey(cfgHash string, snapshot []byte, div DivergenceSpec) string {
	snapSum := sha256.Sum256(snapshot)
	divJSON, err := json.Marshal(div)
	if err != nil {
		// DivergenceSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: encode divergence spec: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, "repro-fork-v1;config=")
	io.WriteString(h, cfgHash)
	io.WriteString(h, ";snapshot=")
	io.WriteString(h, hex.EncodeToString(snapSum[:]))
	io.WriteString(h, ";div=")
	h.Write(divJSON)
	return hex.EncodeToString(h.Sum(nil))
}
