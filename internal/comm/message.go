// Package comm implements the mailbox-based asynchronous communication
// system of the simulated multicomputer.
//
// The paper's Transputer software provides communication only between
// adjacent processors; the authors built a mailbox system on top that routes
// messages between any pair of processors using store-and-forward switching:
// every intermediate node must reserve a buffer (from its MMU) for the whole
// message, receive it over a link, and forward it. This package reproduces
// that system: per-node router daemons run at high priority (stealing cycles
// from application processes), per-hop buffers come from the node MMUs
// (blocking when memory is tight), and links are held for the full
// serialization time of the message.
//
// A wormhole mode implements the alternative the paper's discussion points
// to ("wormhole routing, by eliminating the need for store-and-forward, can
// significantly reduce the performance sensitivity of these policies to the
// network topology"): only flit-sized buffers per hop, pipelined
// transmission, and router work only at the endpoints.
package comm

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// Mode selects the switching discipline.
type Mode int

const (
	// StoreForward is the paper's switching: full-message buffer per hop.
	StoreForward Mode = iota
	// Wormhole pipelines flits through held channels; the ablation mode.
	Wormhole
)

func (m Mode) String() string {
	if m == Wormhole {
		return "wormhole"
	}
	return "store-and-forward"
}

// ParseMode parses "store-and-forward"/"saf" or "wormhole"/"wh".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "store-and-forward", "saf", "sf":
		return StoreForward, nil
	case "wormhole", "wh":
		return Wormhole, nil
	}
	return 0, fmt.Errorf("comm: unknown mode %q", s)
}

// Addr names a mailbox: a partition-local node index plus a box id unique on
// that node.
type Addr struct {
	Node int // partition-local node index
	Box  int
}

func (a Addr) String() string { return "n" + strconv.Itoa(a.Node) + ".b" + strconv.Itoa(a.Box) }

// Message is one mailbox message in flight or delivered.
type Message struct {
	Src, Dst Addr
	// Bytes is the payload size; the wire and buffer size additionally
	// include the mailbox header.
	Bytes int64
	// Tag is a small label for assertions and tracing ("B-matrix",
	// "sorted-half", ...).
	Tag string
	// Payload carries optional semantic content for workloads that verify
	// real results in tests. The simulator never inspects it.
	Payload any

	// SentAt / DeliveredAt are stamped by the network.
	SentAt, DeliveredAt sim.Time
	// HopsTaken counts link traversals experienced.
	HopsTaken int

	released bool
	// uid is nonzero for messages sent under reliable delivery; all copies
	// (original and retransmissions) share it so duplicates are suppressed.
	uid int64
}
