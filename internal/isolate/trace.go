package isolate

import (
	"encoding/binary"
	"fmt"
	"time"

	"predator/internal/frame"
	"predator/internal/obs"
)

// Cross-process span propagation (detailed tracing only).
//
// When the parent runs under a detailed trace (EXPLAIN ANALYZE,
// SET TRACE), it precedes each msgInvoke/msgInvokeBatch with a
// msgTraceCtx frame carrying the trace ID and the parent span ID. The
// child then times its own work — setup, the invoke itself, VM
// execution, every callback round trip — and appends the recorded spans
// to the tail of its msgResult/msgResultBatch payload:
//
//	uvarint spanCount
//	per span: uvarint id, uvarint parent, string name,
//	          uvarint startUnixNano, uvarint durationNs
//
// Span IDs are local to one shipment; the parent remaps them into the
// trace's ID space on merge (obs.Trace.Merge), attributing them to the
// child's PID so a Chrome export shows both processes. With tracing
// off, no msgTraceCtx is sent and every frame is byte-identical to the
// untraced protocol — the zero-overhead guarantee the scalar hot path's
// 0 allocs/op benchmark depends on.

// maxChildSpans bounds spans per shipment on both sides: the child
// stops recording beyond it, and the parent rejects a frame announcing
// more (a babbling child, not a big batch).
const maxChildSpans = 1024

// childSpan is one span recorded inside the executor process.
type childSpan struct {
	id     uint64
	parent uint64
	name   string
	start  time.Time
	dur    time.Duration
}

// appendChildSpans encodes the span tail onto a result payload.
func appendChildSpans(buf []byte, spans []childSpan) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	for _, s := range spans {
		buf = binary.AppendUvarint(buf, s.id)
		buf = binary.AppendUvarint(buf, s.parent)
		buf = frame.AppendString(buf, s.name)
		buf = binary.AppendUvarint(buf, uint64(s.start.UnixNano()))
		buf = binary.AppendUvarint(buf, uint64(s.dur.Nanoseconds()))
	}
	return buf
}

// decodeChildSpans parses a span tail into portable records (the names
// are copied out of the receive buffer by Str).
func decodeChildSpans(r *frame.Cursor) []obs.SpanRecord {
	n := r.Uvarint()
	if n > maxChildSpans {
		r.Err = fmt.Errorf("isolate: %d child spans exceed the cap of %d", n, maxChildSpans)
	}
	if r.Err != nil {
		return nil
	}
	out := make([]obs.SpanRecord, 0, n)
	for range n {
		id := r.Uvarint()
		parent := r.Uvarint()
		name := r.Str()
		start := r.Uvarint()
		dur := r.Uvarint()
		if r.Err != nil {
			return nil
		}
		out = append(out, obs.SpanRecord{
			ID:     int64(id),
			Parent: int64(parent),
			Name:   name,
			Start:  time.Unix(0, int64(start)),
			Dur:    time.Duration(dur),
		})
	}
	return out
}
