// Package frame is the one framing codec of PREDATOR-Go's two process
// boundaries: the client/server wire (package wire, used by the client
// and the server) and the executor pipe (package isolate, used by the
// parent and the child). A frame is a 4-byte little-endian payload
// length, a type byte and the payload. Payloads are built with the
// Append helpers, often into a pooled builder (Take/Put), and read with
// a Cursor; strings and byte slices are uvarint-length-prefixed and
// values use the streamed encoding of package types, the same one the
// disk uses (paper §6.4).
//
// Receiving copies nothing it does not have to: a payload, and every
// slice or BYTES value a Cursor returns from it, aliases the
// connection's grow-only receive buffer and is valid only until the next
// Recv on that connection. A caller that keeps bytes past that point
// copies them out (bytes.Clone, types.Value.Clone).
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"predator/internal/types"
)

// HeaderSize is the length of a frame header.
const HeaderSize = 5

// MaxFrame bounds one frame's payload (64 MiB).
const MaxFrame = 64 << 20

// chunk is the buffered I/O size and the largest payload the receive
// buffer grows to hold before its bytes arrive; beyond it the buffer
// doubles only as bytes arrive.
const chunk = 64 << 10

// ErrFrameSize marks a header announcing a payload over MaxFrame: the
// peer violated the protocol, as opposed to a broken stream.
var ErrFrameSize = errors.New("frame exceeds size limit")

// Conn frames a byte stream. Every Send flushes (the peer blocks on the
// frame). Sends and receives touch disjoint state, so one Send may run
// alongside one Recv; callers serialize sends, and receives, themselves.
type Conn struct {
	r   *bufio.Reader
	w   *bufio.Writer
	hdr [HeaderSize]byte // receive-side header (a field: reading it does not allocate)
	buf []byte           // grow-only receive buffer
}

// NewConn frames the given stream ends (one ReadWriter may be both).
func NewConn(r io.Reader, w io.Writer) *Conn {
	return &Conn{r: bufio.NewReaderSize(r, chunk), w: bufio.NewWriterSize(w, chunk)}
}

// AppendHeader appends the header of a frame of type typ carrying n
// payload bytes.
func AppendHeader(dst []byte, typ byte, n int) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(n)), typ)
}

// Send writes one frame and flushes it.
func (c *Conn) Send(typ byte, payload []byte) error {
	c.w.Write(AppendHeader(c.w.AvailableBuffer(), typ, len(payload)))
	c.w.Write(payload)
	// bufio errors are sticky: a failed write resurfaces here.
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("frame: send: %w", err)
	}
	return nil
}

// Raw writes b unframed and flushes: the fault harnesses' way of putting
// a broken frame on the stream.
func (c *Conn) Raw(b []byte) error {
	c.w.Write(b)
	return c.w.Flush()
}

// Recv reads one frame. The payload is valid until the next Recv (see
// the package comment). A stream that ends cleanly between frames
// returns io.EOF itself.
func (c *Conn) Recv() (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(c.hdr[:4]))
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("frame: %d-byte payload: %w", n, ErrFrameSize)
	}
	// Past one chunk, grow only as bytes arrive: a header that promises
	// more than the peer sends costs one chunk or twice what arrived.
	p := c.buf[:0]
	for len(p) < n {
		if len(p) == cap(p) {
			p = slices.Grow(p, min(n, max(2*len(p), chunk))-len(p))
			c.buf = p
		}
		m, err := io.ReadFull(c.r, p[len(p):min(n, cap(p))])
		p = p[:len(p)+m]
		if err != nil {
			return 0, nil, fmt.Errorf("frame: read payload: %w", err)
		}
	}
	return c.hdr[4], p, nil
}

// builders recycles send-side payload builders so encoding a frame does
// not allocate per crossing. It holds them behind pointers, since a
// slice stored in a sync.Pool boxes its header on every Put; boxes
// recycles the emptied pointers, so neither Take nor Put allocates once
// warm.
var builders, boxes sync.Pool

// Take returns an empty payload builder with whatever capacity a prior
// frame grew it to.
func Take() []byte {
	p, _ := builders.Get().(*[]byte)
	if p == nil {
		return nil
	}
	buf := *p
	*p = nil
	boxes.Put(p)
	return buf[:0]
}

// Put returns a builder to the pool once its frame is sent.
func Put(buf []byte) {
	if cap(buf) == 0 || cap(buf) > MaxFrame {
		return
	}
	p, _ := boxes.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = buf[:0]
	builders.Put(p)
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBytes appends a uvarint-length-prefixed byte slice.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// Cursor reads a payload front to back. The first failure sticks in Err
// and turns every later read into a zero-value no-op, so a decoder
// checks Err once at the end.
type Cursor struct {
	Buf []byte
	Off int
	Err error
}

func (r *Cursor) fail() {
	if r.Err == nil {
		r.Err = fmt.Errorf("frame: truncated payload at offset %d", r.Off)
	}
}

// advance consumes n bytes; n < 1 (nothing decodable) fails the cursor.
func (r *Cursor) advance(n int) {
	if n < 1 {
		r.fail()
		return
	}
	r.Off += n
}

// Uvarint reads an unsigned varint (0 on failure, as binary.Uvarint).
func (r *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(r.Rest())
	r.advance(n)
	return v
}

// Varint reads a signed varint (0 on failure, as binary.Varint).
func (r *Cursor) Varint() int64 {
	v, n := binary.Varint(r.Rest())
	r.advance(n)
	return v
}

// Byte reads one raw byte.
func (r *Cursor) Byte() byte {
	rest := r.Rest()
	if len(rest) == 0 {
		r.fail()
		return 0
	}
	r.Off++
	return rest[0]
}

// Bytes reads a length-prefixed byte slice without copying it.
func (r *Cursor) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.Rest())) {
		r.fail()
	}
	if r.Err != nil {
		return nil
	}
	r.Off += int(n)
	return r.Buf[r.Off-int(n) : r.Off]
}

// Str reads a length-prefixed string (a copy, as every Go string is).
func (r *Cursor) Str() string { return string(r.Bytes()) }

// Value reads an encoded value; a BYTES value aliases the payload.
func (r *Cursor) Value() types.Value {
	v, n, err := types.DecodeValue(r.Rest())
	if err != nil && r.Err == nil {
		r.Err = err
	}
	r.advance(n)
	return v
}

// Count reads a uvarint element count and fails unless the rest of the
// payload can hold that many elements of at least size bytes each (a
// size below 1 counts as 1), so no count is trusted past the bytes that
// back it and a decoder may preallocate for it.
func (r *Cursor) Count(size int) int {
	n := r.Uvarint()
	if r.Err == nil && n > uint64(len(r.Rest())/max(size, 1)) {
		r.Err = fmt.Errorf("frame: count %d at offset %d exceeds the payload", n, r.Off)
	}
	if r.Err != nil {
		return 0
	}
	return int(n)
}

// Rest returns the unread remainder of the payload (nil once a read
// failed).
func (r *Cursor) Rest() []byte {
	if r.Err != nil {
		return nil
	}
	return r.Buf[r.Off:]
}
