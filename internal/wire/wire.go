// Package wire defines the client/server protocol of PREDATOR-Go: the
// message types, the result/error/schema payload encodings, the traffic
// counters and the wiresend/wirerecv fault matrix, as a thin layer over
// package frame, the codec the executor pipe uses too. The same
// streamed value encoding (package types) used on disk is used on the
// wire, which is the property that makes Jaguar UDFs location-portable:
// a UDF reads its arguments from a stream and writes its result to a
// stream whether it runs at the client or the server (paper §6.4).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"predator/internal/frame"
	"predator/internal/obs"
	"predator/internal/types"
)

// Process-wide wire traffic counters (frame headers included).
var (
	obsBytesIn  = obs.Default.Counter("predator_wire_bytes_in_total")
	obsBytesOut = obs.Default.Counter("predator_wire_bytes_out_total")
	obsFramesIn = obs.Default.Counter("predator_wire_frames_in_total")
)

// Protocol message types.
const (
	// Requests.
	MsgHello      byte = 0x01 // user string
	MsgQuery      byte = 0x02 // sql string
	MsgRegister   byte = 0x03 // UDF upload (class bytes)
	MsgPutObject  byte = 0x04 // large object for callback handles
	MsgPing       byte = 0x05
	MsgQuit       byte = 0x06
	MsgFetchClass byte = 0x07 // download a registered UDF's class bytes

	// Responses.
	MsgOK     byte = 0x81 // optional message string
	MsgError  byte = 0x82 // error string
	MsgResult byte = 0x83 // schema + rows (+ message/plan)
	MsgHandle byte = 0x84 // int64 handle
	MsgClass  byte = 0x85 // class bytes + metadata
)

// Conn is the protocol's frame.Conn plus the process-wide traffic
// counters and, on the server side, the wiresend/wirerecv fault matrix
// (fault.go). Not safe for concurrent use; callers serialize
// request/response pairs.
type Conn struct {
	fc     *frame.Conn
	faulty bool
}

// NewConn wraps a transport.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{fc: frame.NewConn(rw, rw)} }

// EnableFaultInjection opts this connection into the PREDATOR_FAULT
// wire matrix (see fault.go). The server arms its side of every
// connection; clients never do, so an in-process chaos test perturbs
// exactly the server-facing direction.
func (c *Conn) EnableFaultInjection() *Conn {
	c.faulty = true
	return c
}

// Send writes one frame.
func (c *Conn) Send(typ byte, payload []byte) error {
	if c.faulty {
		if err := c.fault("wiresend", typ, payload); err != nil {
			return err
		}
	}
	if err := c.fc.Send(typ, payload); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	obsBytesOut.Add(int64(frame.HeaderSize + len(payload)))
	return nil
}

// Recv reads one frame. The payload aliases the connection's receive
// buffer until the next Recv: a caller that keeps bytes from it copies
// them (see package frame).
func (c *Conn) Recv() (byte, []byte, error) {
	if c.faulty {
		if err := c.fault("wirerecv", 0, nil); err != nil {
			return 0, nil, err
		}
	}
	typ, payload, err := c.fc.Recv()
	if err != nil {
		return 0, nil, err
	}
	obsBytesIn.Add(int64(frame.HeaderSize + len(payload)))
	obsFramesIn.Inc()
	return typ, payload, nil
}

// appendSchema appends an encoded schema.
func appendSchema(buf []byte, s *types.Schema) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Arity()))
	for _, col := range s.Columns {
		buf = append(frame.AppendString(buf, col.Name), byte(col.Kind))
	}
	return buf
}

// decodeSchema reads an encoded schema.
func decodeSchema(r *frame.Cursor) *types.Schema {
	n := r.Count(2) // a column is at least a name length and a kind
	s := &types.Schema{Columns: make([]types.Column, 0, n)}
	for i := 0; i < n; i++ {
		name := r.Str()
		kind := types.Kind(r.Byte())
		s.Columns = append(s.Columns, types.Column{Name: name, Kind: kind})
	}
	return s
}

// ErrFlagRetryable marks a server error whose statement never ran (or
// was killed mid-run for transient reasons): the client may resubmit
// as-is after backing off.
const ErrFlagRetryable byte = 1 << 0

// EncodeError serializes a MsgError payload: the message string the
// v0 protocol carried, followed by a flags byte and a machine-readable
// code (a core.FaultClass name such as "overload" or "quota"). Old
// readers stop after the leading string, so the extension is
// backward compatible in both directions.
func EncodeError(msg, code string, retryable bool) []byte {
	var flags byte
	if retryable {
		flags |= ErrFlagRetryable
	}
	return frame.AppendString(append(frame.AppendString(nil, msg), flags), code)
}

// DecodeError parses a MsgError payload from either protocol
// generation: bare-string payloads yield an empty code and
// retryable=false.
func DecodeError(payload []byte) (msg, code string, retryable bool) {
	r := frame.Cursor{Buf: payload}
	msg = r.Str()
	flags := r.Byte() // a bare-string payload fails here
	code = r.Str()
	if r.Err != nil {
		return msg, "", false
	}
	return msg, code, flags&ErrFlagRetryable != 0
}

// EncodeResult serializes a query result (schema, rows, message, plan).
func EncodeResult(schema *types.Schema, rows []types.Row, affected int64, message, plan string) []byte {
	var buf []byte
	if schema != nil {
		buf = appendSchema(append(buf, 1), schema)
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		for _, row := range rows {
			for _, v := range row {
				buf = types.EncodeValue(buf, v)
			}
		}
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, affected)
	return frame.AppendString(frame.AppendString(buf, message), plan)
}

// DecodeResult parses a query result. The rows are the caller's to
// keep: every value is cloned out of the payload. All rows share one
// slab of values, each capped at its own length so that an append to
// one cannot reach the next. The row count is trusted only as far as
// the remaining bytes can hold that many rows, so a short hostile
// payload cannot make it allocate.
func DecodeResult(payload []byte) (schema *types.Schema, rows []types.Row, affected int64, message, plan string, err error) {
	r := frame.Cursor{Buf: payload}
	if r.Byte() == 1 {
		schema = decodeSchema(&r)
		arity := schema.Arity()
		n := r.Count(arity) // a value is at least its tag byte
		rows = make([]types.Row, 0, n)
		vals := make([]types.Value, n*arity)
		for i := 0; i < n && r.Err == nil; i++ {
			row := vals[i*arity : (i+1)*arity : (i+1)*arity]
			for j := range row {
				row[j] = r.Value().Clone()
			}
			rows = append(rows, row)
		}
	}
	affected = r.Varint()
	message = r.Str()
	plan = r.Str()
	if r.Err != nil {
		return nil, nil, 0, "", "", r.Err
	}
	return schema, rows, affected, message, plan, nil
}
