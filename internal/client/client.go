// Package client is the PREDATOR-Go client library — the analog of the
// paper's Java applet library / JDBC-ish driver (§6.4). Beyond issuing
// SQL over the wire, it supports the portable-UDF workflow:
//
//  1. compile a Jaguar UDF locally from source,
//  2. test it locally in the client's own Jaguar VM (same verified
//     bytecode, same stream interfaces the server uses),
//  3. migrate it to the server by uploading the class bytes, where it
//     is re-verified and registered.
package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"predator/internal/frame"
	"predator/internal/jaguar"
	"predator/internal/jvm"
	"predator/internal/types"
	"predator/internal/wire"
)

// Client is a connection to a PREDATOR-Go server. Methods serialize:
// the protocol is strict request/response.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	c    *wire.Conn
	vm   *jvm.VM // client-side VM for local UDF testing
}

// Result mirrors the server's statement result.
type Result struct {
	Schema       *types.Schema
	Rows         []types.Row
	RowsAffected int64
	Message      string
	Plan         string
}

// Dial connects and performs the hello handshake.
func Dial(addr, user string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	cl := &Client{
		conn: conn,
		c:    wire.NewConn(conn),
		vm:   jvm.New(jvm.Options{Security: jvm.DefaultPolicy()}),
	}
	if err := cl.c.Send(wire.MsgHello, frame.AppendString(nil, user)); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := cl.c.Recv()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ != wire.MsgOK {
		conn.Close()
		return nil, decodeError(typ, payload)
	}
	return cl, nil
}

// Close ends the session.
func (cl *Client) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	_ = cl.c.Send(wire.MsgQuit, nil)
	return cl.conn.Close()
}

// ServerError is a typed server-side failure. Code is the server's
// fault classification ("overload", "quota", "timeout", ...; empty for
// unclassified errors and pre-flags servers), and Retryable reports
// whether the statement can be resubmitted as-is after backing off.
type ServerError struct {
	Msg       string
	Code      string
	Retryable bool
}

// Error implements error.
func (e *ServerError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("client: server error [%s]: %s", e.Code, e.Msg)
	}
	return "client: server error: " + e.Msg
}

// IsRetryable reports whether err is a server error that is safe to
// retry as-is (admission shed, statement-timeout kill).
func IsRetryable(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Retryable
}

func decodeError(typ byte, payload []byte) error {
	if typ == wire.MsgError {
		msg, code, retryable := wire.DecodeError(payload)
		return &ServerError{Msg: msg, Code: code, Retryable: retryable}
	}
	return fmt.Errorf("client: unexpected response type 0x%02x", typ)
}

// Exec runs one SQL statement on the server.
func (cl *Client) Exec(sql string) (*Result, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if err := cl.c.Send(wire.MsgQuery, frame.AppendString(nil, sql)); err != nil {
		return nil, err
	}
	typ, payload, err := cl.c.Recv()
	if err != nil {
		return nil, err
	}
	if typ != wire.MsgResult {
		return nil, decodeError(typ, payload)
	}
	schema, rows, affected, message, plan, err := wire.DecodeResult(payload)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: schema, Rows: rows, RowsAffected: affected, Message: message, Plan: plan}, nil
}

// Ping checks liveness.
func (cl *Client) Ping() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if err := cl.c.Send(wire.MsgPing, nil); err != nil {
		return err
	}
	typ, payload, err := cl.c.Recv()
	if err != nil {
		return err
	}
	if typ != wire.MsgOK {
		return decodeError(typ, payload)
	}
	return nil
}

// PutObject registers a large object on the server for callback access
// and returns its handle.
func (cl *Client) PutObject(data []byte) (int64, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if err := cl.c.Send(wire.MsgPutObject, frame.AppendBytes(nil, data)); err != nil {
		return 0, err
	}
	typ, payload, err := cl.c.Recv()
	if err != nil {
		return 0, err
	}
	if typ != wire.MsgHandle {
		return 0, decodeError(typ, payload)
	}
	r := frame.Cursor{Buf: payload}
	h := r.Varint()
	return h, r.Err
}

// UDFSpec describes a portable UDF for compilation and registration.
type UDFSpec struct {
	// Name is the SQL function name; the Jaguar entry method must have
	// the same name unless Method is set.
	Name   string
	Method string
	Source string // Jaguar source
	Args   []types.Kind
	Return types.Kind
	// Isolated asks the server to run it in an executor process
	// (Design 4); default is the embedded VM (Design 3).
	Isolated bool
	// Persist stores the class in the server catalog across restarts.
	Persist bool
}

// Compile compiles the spec's source to verified class bytes without
// touching the server (step 1 of the migration workflow).
func (cl *Client) Compile(spec UDFSpec) ([]byte, error) {
	classBytes, err := jaguar.CompileToBytes(spec.Source, "udf_"+spec.Name)
	if err != nil {
		return nil, err
	}
	return classBytes, nil
}

// TestLocally loads the class bytes in the client's own VM and invokes
// the UDF with the given arguments (step 2: same bytecode, same
// verification, client-side execution). cb may be nil.
func (cl *Client) TestLocally(spec UDFSpec, classBytes []byte, args []types.Value, cb jvm.Callback) (types.Value, error) {
	loader := cl.vm.NewLoader("local:" + spec.Name)
	loader.Unload("udf_" + spec.Name)
	lc, err := loader.Load(classBytes)
	if err != nil {
		return types.Value{}, err
	}
	method := spec.Method
	if method == "" {
		method = spec.Name
	}
	vargs := make([]jvm.Value, len(args))
	for i, a := range args {
		v, err := jvm.ToVM(a)
		if err != nil {
			return types.Value{}, err
		}
		vargs[i] = v
	}
	ret, _, err := lc.Call(method, vargs, &jvm.CallOptions{Callback: cb})
	if err != nil {
		return types.Value{}, err
	}
	return jvm.FromVM(ret, spec.Return)
}

// Register uploads class bytes to the server (step 3: migration). The
// server re-verifies and installs them.
func (cl *Client) Register(spec UDFSpec, classBytes []byte) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	method := spec.Method
	if method == "" {
		method = spec.Name
	}
	w := frame.AppendBytes(frame.AppendString(frame.AppendString(nil, spec.Name), method), classBytes)
	w = binary.AppendUvarint(w, uint64(len(spec.Args)))
	for _, k := range spec.Args {
		w = append(w, byte(k))
	}
	w = append(w, byte(spec.Return), flag(spec.Isolated), flag(spec.Persist))
	if err := cl.c.Send(wire.MsgRegister, w); err != nil {
		return err
	}
	typ, payload, err := cl.c.Recv()
	if err != nil {
		return err
	}
	if typ != wire.MsgOK {
		return decodeError(typ, payload)
	}
	return nil
}

// CreateUDF is the one-call convenience: compile, then register.
func (cl *Client) CreateUDF(spec UDFSpec) error {
	classBytes, err := cl.Compile(spec)
	if err != nil {
		return err
	}
	return cl.Register(spec, classBytes)
}

// FetchClass downloads a registered portable UDF's class bytes (the
// server-to-client direction of §6.4: "the client can download Java
// classes from the server-site").
func (cl *Client) FetchClass(name string) (classBytes []byte, args []types.Kind, ret types.Kind, err error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if err := cl.c.Send(wire.MsgFetchClass, frame.AppendString(nil, name)); err != nil {
		return nil, nil, 0, err
	}
	typ, payload, err := cl.c.Recv()
	if err != nil {
		return nil, nil, 0, err
	}
	if typ != wire.MsgClass {
		return nil, nil, 0, decodeError(typ, payload)
	}
	r := frame.Cursor{Buf: payload}
	_ = r.Str() // canonical name
	// The caller keeps the class: copy it out of the receive buffer.
	classBytes = bytes.Clone(r.Bytes())
	args = make([]types.Kind, r.Count(1))
	for i := range args {
		args[i] = types.Kind(r.Byte())
	}
	ret = types.Kind(r.Byte())
	return classBytes, args, ret, r.Err
}

// flag encodes a boolean as one payload byte.
func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}
