package wire

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"predator/internal/frame"
)

// Deterministic fault injection for the client/server wire, extending
// the PREDATOR_FAULT convention (internal/isolate, internal/storage)
// from the executor pipe and the disk to the network protocol. A spec
// names a protocol point and a failure mode:
//
//	point:mode[:arg]
//
// Points:
//
//	wiresend — before writing a frame (server → client result stream)
//	wirerecv — before reading a frame (client → server request stream)
//
// Modes:
//
//	stall:<dur> — sleep before every matching operation while armed: a
//	              slow network, or a stalled client that stops draining
//	              its result stream
//	partial     — on the arg-th hit (default 1), write the frame header
//	              plus half the payload, flush, and fail the send: the
//	              peer observes a mid-frame disconnect. On wirerecv it
//	              behaves as disconnect (nothing was consumed).
//	disconnect  — on the arg-th hit (default 1), fail the operation
//	              without touching the stream, as if the TCP connection
//	              dropped between frames
//
// Unlike the storage faults, wire faults never kill the process: the
// point of the matrix is to prove the *server* survives them. Faults
// fire only on connections that opted in via EnableFaultInjection —
// the server arms its side; clients sharing the test process do not —
// so in-process chaos tests perturb exactly one direction.
//
// Specs arrive through the PREDATOR_FAULT environment variable (read
// once at init) or programmatically via InjectFault, which is what
// same-process tests use.

// ErrInjected marks failures produced by the wire fault harness, so
// tests can tell an injected fault from a real bug.
var ErrInjected = errors.New("wire: injected fault")

var wirePoints = map[string]bool{"wiresend": true, "wirerecv": true}

type wireFault struct {
	point     string
	mode      string
	stall     time.Duration
	remaining atomic.Int64
}

var wirePlan atomic.Pointer[wireFault]

func init() {
	if p := parseWireFault(os.Getenv("PREDATOR_FAULT")); p != nil {
		wirePlan.Store(p)
	}
}

// InjectFault arms wire fault injection process-wide, returning a
// function that disarms it. An empty or malformed spec (or one aimed
// at a non-wire point) disarms; a bad spec must never break the wire.
func InjectFault(spec string) (clear func()) {
	wirePlan.Store(parseWireFault(spec))
	return func() { wirePlan.Store(nil) }
}

func parseWireFault(spec string) *wireFault {
	if spec == "" {
		return nil
	}
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) < 2 || !wirePoints[parts[0]] {
		return nil
	}
	p := &wireFault{point: parts[0], mode: parts[1]}
	p.remaining.Store(1)
	switch p.mode {
	case "stall":
		if len(parts) < 3 {
			return nil
		}
		d, err := time.ParseDuration(parts[2])
		if err != nil || d <= 0 {
			return nil
		}
		p.stall = d
	case "partial", "disconnect":
		if len(parts) == 3 {
			n, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil || n < 1 {
				return nil
			}
			p.remaining.Store(n)
		}
	default:
		return nil
	}
	return p
}

// fault perturbs one send or receive at point on an armed connection.
// A non-nil return aborts the operation; a partial send first leaves the
// header and half the payload on the stream, a frame the peer can never
// complete. On wirerecv, partial behaves as disconnect (nothing was
// consumed).
func (c *Conn) fault(point string, typ byte, payload []byte) error {
	p := wirePlan.Load()
	if p == nil || p.point != point {
		return nil
	}
	if p.mode == "stall" {
		time.Sleep(p.stall)
		return nil
	}
	if p.remaining.Add(-1) != 0 {
		return nil
	}
	if p.mode == "partial" && point == "wiresend" {
		c.fc.Raw(append(frame.AppendHeader(nil, typ, len(payload)), payload[:len(payload)/2]...))
		return fmt.Errorf("%w: partial write at %s", ErrInjected, point)
	}
	return fmt.Errorf("%w: disconnect at %s", ErrInjected, point)
}
