// Package isolate implements the isolated-process UDF designs (the
// paper's Design 2 "IC++" and Design 4): the UDF runs in a separate
// executor OS process, with arguments, results and callbacks crossing
// the process boundary on a framed pipe protocol.
//
// The paper's implementation used shared memory plus semaphores; pipes
// preserve the same cost structure — a per-invocation crossing whose
// cost is independent of UDF computation but grows with the bytes
// copied, and a double crossing for every callback (see DESIGN.md).
//
// The executor is the same program binary re-executed with
// ExecutorEnv set (call MaybeRunExecutor early in main or TestMain),
// so native UDF implementations are available on both sides.
//
// There is one transport, MuxExecutor: a frame is a 4-byte little-endian
// payload length, a type byte and the payload, and every payload in
// both directions starts with a uvarint stream ID. Stream 0 carries the
// ready, ping/pong and shutdown frames; each stream opened on an
// executor carries one UDF binding and at most one invocation at a
// time. A fleet slot carries the streams of many queries; a fleetless
// or quarantined UDF owns a private executor with a single stream.
package isolate

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"predator/internal/types"
)

// ExecutorEnv marks a process as a UDF executor when set to "1".
const ExecutorEnv = "PREDATOR_UDF_EXECUTOR"

// maxFrame bounds a single protocol frame (64 MiB).
const maxFrame = 64 << 20

// errFrameSize marks a framing violation — the peer announced an
// impossible frame (a babbling child), distinct from a broken pipe.
var errFrameSize = errors.New("frame exceeds size limit")

// Message types. Each payload starts with the uvarint stream ID; the
// comments list what follows it.
const (
	msgInvoke      byte = iota + 1 // argc, values
	msgResult                      // value
	msgError                       // string
	msgCallback                    // op, handle, off, len
	msgCBResult                    // ok flag, payload
	msgShutdown                    // none (stream 0)
	msgReady                       // none (stream 0 at start; an opened stream)
	msgPing                        // none (stream 0 health check)
	msgPong                        // none (stream 0 health check reply)
	msgInvokeBatch                 // n, arity, n*arity values (one crossing)
	msgResultBatch                 // n, per row: status byte + value | error string
	msgTraceCtx                    // trace id, parent span id (precedes a traced invoke)
	msgOpenStream                  // kind, tenant, name, token, setup
	msgCloseStream                 // none
)

// Stream-open kinds inside msgOpenStream frames.
const (
	streamWarm   byte = iota // bind a cached (tenant, UDF, token) warm entry; error if cold
	streamNative             // bind a native UDF (name follows)
	streamVM                 // bind a VM UDF (class/method/limits follow)
)

// Callback operation codes inside msgCallback frames.
const (
	cbSize byte = iota + 1
	cbGet
	cbRead
	cbTouch
)

// frame is one decoded protocol message.
type frame struct {
	typ     byte
	payload []byte
}

// conn wraps the two pipe ends with buffered framing.
type conn struct {
	r *bufio.Reader
	w *bufio.Writer

	// rbuf is the grow-only receive scratch: recv decodes every frame
	// into it instead of allocating per frame. A frame's payload is
	// valid only until the next recv on this conn; callers that keep
	// payload data across a recv (nested callback round trips, cloned
	// result values) must copy it out first.
	rbuf []byte
}

func newConn(r io.Reader, w io.Writer) *conn {
	return &conn{r: bufio.NewReaderSize(r, 64<<10), w: bufio.NewWriterSize(w, 64<<10)}
}

// send writes one frame and flushes (the peer blocks on it).
func (c *conn) send(typ byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := c.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("isolate: write frame header: %w", err)
	}
	if _, err := c.w.Write(payload); err != nil {
		return fmt.Errorf("isolate: write frame payload: %w", err)
	}
	return c.w.Flush()
}

// recv reads one frame into the connection's grow-only scratch buffer.
// The returned payload is only valid until the next recv (see conn).
func (c *conn) recv() (frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return frame{}, fmt.Errorf("isolate: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return frame{}, fmt.Errorf("isolate: frame of %d bytes: %w", n, errFrameSize)
	}
	if uint32(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	payload := c.rbuf[:n]
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return frame{}, fmt.Errorf("isolate: read frame payload: %w", err)
	}
	return frame{typ: hdr[4], payload: payload}, nil
}

// payloadPool recycles send-side payload builders so encoding a frame
// (invoke arguments, batch results) does not allocate per crossing.
var payloadPool = sync.Pool{New: func() any { return []byte(nil) }}

// takePayload returns an empty builder with whatever capacity a prior
// frame grew it to.
func takePayload() []byte { return payloadPool.Get().([]byte)[:0] }

// putPayload returns a builder to the pool after its frame is flushed.
func putPayload(buf []byte) {
	if cap(buf) <= maxFrame {
		payloadPool.Put(buf[:0]) //nolint:staticcheck // slice header allocation is amortized
	}
}

// Payload builders and parsers.

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// preader is a cursor over a frame payload.
type preader struct {
	buf []byte
	off int
	err error
}

func (r *preader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("isolate: truncated frame at offset %d", r.off)
	}
}

func (r *preader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *preader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *preader) byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *preader) bytes() []byte {
	n := int(r.uvarint())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

func (r *preader) str() string { return string(r.bytes()) }

func (r *preader) value() types.Value {
	if r.err != nil {
		return types.Value{}
	}
	v, n, err := types.DecodeValue(r.buf[r.off:])
	if err != nil {
		r.err = err
		return types.Value{}
	}
	r.off += n
	return v
}
