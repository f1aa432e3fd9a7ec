// Package server exposes a PREDATOR-Go engine over TCP. Like the
// paper's PREDATOR, the server is a single multi-threaded process with
// (at least) one thread — here a goroutine — per connected client.
// Clients issue SQL, upload verified Jaguar UDF classes (the §6.4
// migration path), and register large objects for callback access.
//
// The server is also where overload policy lives: connection and query
// admission gates shed excess work with typed retryable errors instead
// of queueing unboundedly, per-tenant session caps keep one user from
// monopolizing the connection table, and Shutdown drains in-flight
// statements before hanging up so every acknowledged result was really
// produced.
package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"predator/internal/core"
	"predator/internal/engine"
	"predator/internal/frame"
	"predator/internal/govern"
	"predator/internal/obs"
	"predator/internal/types"
	"predator/internal/wire"
)

// Process-wide server metrics.
var (
	obsConnsTotal = obs.Default.Counter("predator_server_connections_total")
	obsConnsOpen  = obs.Default.Gauge("predator_server_connections_open")
	obsQueriesIn  = obs.Default.Gauge("predator_server_queries_in_flight")
	obsQueriesTot = obs.Default.Counter("predator_server_queries_total")
)

// errDraining rejects new statements while Shutdown waits for in-flight
// ones; the client should reconnect (to a replacement) and retry.
var errDraining = errors.New("server: draining for shutdown, retry later")

// Server serves one engine over a listener.
type Server struct {
	eng       *engine.Engine
	logf      func(format string, args ...any)
	opts      Options
	connGate  *govern.Gate
	queryGate *govern.Gate

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]bool
	wg       sync.WaitGroup
	stmts    sync.WaitGroup // in-flight statements (drained by Shutdown)
	draining bool           // refuse new statements, finish running ones
	shutdown bool           // refuse new connections

	closeOnce sync.Once
	closeErr  error
}

// Options configures a server.
type Options struct {
	// Logf receives connection lifecycle logs (nil = log.Printf).
	Logf func(format string, args ...any)
	// ReadTimeout is the per-connection idle read deadline: a client
	// that sends nothing for this long is disconnected, so wedged or
	// vanished clients never pin a session goroutine forever
	// (0 = no deadline).
	ReadTimeout time.Duration
	// StatementTimeout seeds each connection's session deadline;
	// clients adjust theirs with SET STATEMENT_TIMEOUT (0 = none).
	StatementTimeout time.Duration
	// MaxConns caps concurrently connected clients. A client past the
	// cap receives a typed retryable error frame and is disconnected
	// (0 = unlimited).
	MaxConns int
	// MaxConcurrentQueries caps statements executing at once across all
	// connections; excess queries wait up to AdmissionWait for a slot
	// and are then shed with a typed retryable error (0 = unlimited).
	MaxConcurrentQueries int
	// AdmissionWait bounds how long an over-admitted query may wait for
	// an execution slot before being shed (0 = shed immediately).
	AdmissionWait time.Duration
	// MaxSessionsPerUser caps concurrently open sessions per tenant
	// (user); a hello past the cap is refused with a typed retryable
	// error (0 = unlimited).
	MaxSessionsPerUser int
}

// New wraps an engine in a server.
func New(eng *engine.Engine, opts Options) *Server {
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	return &Server{
		eng:       eng,
		logf:      logf,
		opts:      opts,
		connGate:  govern.NewGate("connections", opts.MaxConns),
		queryGate: govern.NewGate("queries", opts.MaxConcurrentQueries),
		conns:     make(map[net.Conn]bool),
	}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:5442")
// and returns immediately; the returned address is the bound one (use
// ":0" to pick a free port).
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		release, admit := s.connGate.Acquire(0)
		// Register the connection before spawning its goroutine: once
		// it is in s.conns, Close/Shutdown will interrupt it, so a conn
		// accepted in the races around shutdown can never outlive the
		// server. If shutdown already won, drop the conn here.
		s.mu.Lock()
		if s.shutdown || s.draining {
			s.mu.Unlock()
			if admit == nil {
				release()
			}
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		obsConnsTotal.Inc()
		if admit != nil {
			// Over MaxConns: tell the client why (typed, retryable),
			// then hang up. Done off the accept loop so a stalled peer
			// cannot block admission of everyone else. Reading the
			// client's hello first makes the rejection its response
			// instead of racing the client's own write; a silent peer
			// gets a short grace before the same treatment.
			go func() {
				defer s.wg.Done()
				defer s.forget(conn)
				defer conn.Close()
				conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				c := wire.NewConn(conn)
				c.Recv()
				fault := core.NewFault(core.FaultOverload, "connect", admit)
				c.Send(wire.MsgError, errorPayload(fault))
			}()
			continue
		}
		obsConnsOpen.Add(1)
		// One goroutine per client: the PREDATOR threading model.
		go func() {
			defer s.wg.Done()
			defer obsConnsOpen.Add(-1)
			defer release()
			s.serveConn(conn)
			s.forget(conn)
		}()
	}
}

// forget removes a finished connection from the shutdown set.
func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops the server immediately: no drain grace, in-flight
// statements are cut off by closing their connections.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: drain nothing
	return s.Shutdown(ctx)
}

// Shutdown gracefully stops the server: it stops accepting connections
// and statements, waits for in-flight statements to finish (and their
// result frames to reach the wire) until ctx expires, then closes every
// connection, waits for the session goroutines, and closes the engine.
// Safe to call concurrently and repeatedly; every call returns the
// engine's close error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.stmts.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
	}
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.shutdown = true
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		s.closeErr = s.eng.Close()
	})
	s.wg.Wait() // racers that lost the Once still wait for teardown
	return s.closeErr
}

// beginStmt admits one statement into the drain set, or refuses it
// because shutdown has begun. The caller must s.stmts.Done() when the
// statement's result (or error) has been written to the wire.
func (s *Server) beginStmt() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.stmts.Add(1)
	return true
}

// errorPayload encodes err as a typed MsgError payload: the message,
// the fault class as a machine-readable code, and the retryable flag
// clients use to decide between backoff-and-resend and giving up.
func errorPayload(err error) []byte {
	code := ""
	if class := core.FaultClassOf(err); class != core.FaultNone {
		code = class.String()
	}
	return wire.EncodeError(err.Error(), code, core.Retryable(err))
}

// session is one client connection's state.
type session struct {
	user string
	// eng is the per-connection engine session: statement deadlines set
	// with SET STATEMENT_TIMEOUT are scoped to this connection.
	eng *engine.Session
	// admitted is the tenant holding this session's slot under the
	// per-user session cap (nil until a successful hello).
	admitted *govern.Tenant
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	// A panicking handler must cost at most this one connection, never
	// the server: recover, log, drop the client.
	defer func() {
		if r := recover(); r != nil {
			s.logf("server: connection %s: panic: %v\n%s", conn.RemoteAddr(), r, debug.Stack())
		}
	}()
	// The server side opts into PREDATOR_FAULT wire faults so chaos
	// tests can perturb the server's reads and writes without touching
	// the in-process test client's.
	c := wire.NewConn(conn).EnableFaultInjection()
	sess := &session{user: "anonymous", eng: s.eng.NewSession()}
	sess.eng.SetStatementTimeout(s.opts.StatementTimeout)
	defer func() {
		if sess.admitted != nil {
			sess.admitted.EndSession()
		}
	}()
	for {
		if s.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		typ, payload, err := c.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("server: connection %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if typ == wire.MsgQuit {
			return
		}
		if err := s.handle(c, sess, typ, payload); err != nil {
			s.logf("server: dropping connection %s: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

func (s *Server) handle(c *wire.Conn, sess *session, typ byte, payload []byte) (err error) {
	sendErr := func(err error) error {
		return c.Send(wire.MsgError, errorPayload(err))
	}
	// A panic inside a handler (a misbehaving in-process UDF, a bad
	// frame tripping a decoder bug) becomes an error reply; the
	// connection keeps serving.
	defer func() {
		if r := recover(); r != nil {
			s.logf("server: request 0x%02x from %s panicked: %v\n%s", typ, sess.user, r, debug.Stack())
			err = sendErr(fmt.Errorf("server: internal error: %v", r))
		}
	}()
	switch typ {
	case wire.MsgHello:
		r := frame.Cursor{Buf: payload}
		user := r.Str()
		if r.Err != nil {
			return sendErr(r.Err)
		}
		if user != "" {
			sess.user = user
		}
		// Bind the session to its tenant so quotas govern its
		// statements, and take a slot under the per-user session cap.
		sess.eng.BindTenant(sess.user)
		if ten := sess.eng.Tenant(); ten != sess.admitted {
			if sess.admitted != nil {
				sess.admitted.EndSession()
				sess.admitted = nil
			}
			if err := ten.AddSession(s.opts.MaxSessionsPerUser); err != nil {
				// Send the typed refusal, then drop the connection: the
				// session is already bound to the tenant, so keeping it
				// open would let a client that ignores the error keep
				// issuing statements without holding a session slot.
				if serr := sendErr(core.NewFault(core.FaultOverload, "hello", err)); serr != nil {
					return serr
				}
				return fmt.Errorf("refusing hello from %s: %w", sess.user, err)
			}
			sess.admitted = ten
		}
		return c.Send(wire.MsgOK, frame.AppendString(nil, "welcome "+sess.user))
	case wire.MsgPing:
		return c.Send(wire.MsgOK, frame.AppendString(nil, "pong"))
	case wire.MsgQuery:
		return s.handleQuery(c, sess, payload)
	case wire.MsgRegister:
		r := frame.Cursor{Buf: payload}
		name := r.Str()
		method := r.Str()
		// The catalog keeps the class: copy it out of the receive buffer.
		classBytes := bytes.Clone(r.Bytes())
		args := make([]types.Kind, r.Count(1))
		for i := range args {
			args[i] = types.Kind(r.Byte())
		}
		ret := types.Kind(r.Byte())
		isolated := r.Byte() != 0
		persist := r.Byte() != 0
		if r.Err != nil {
			return sendErr(r.Err)
		}
		// The upload path re-verifies the class inside the engine's VM;
		// nothing the client sends is trusted.
		if err := s.eng.RegisterJaguarClass(name, classBytes, method, args, ret, isolated, persist); err != nil {
			return sendErr(err)
		}
		s.logf("server: user %s registered UDF %s (%d bytes of class)", sess.user, name, len(classBytes))
		return c.Send(wire.MsgOK, frame.AppendString(nil, "function "+name+" registered"))
	case wire.MsgPutObject:
		r := frame.Cursor{Buf: payload}
		data := r.Bytes()
		if r.Err != nil {
			return sendErr(r.Err)
		}
		// The object outlives the frame: copy it out of the receive buffer.
		h := s.eng.Objects().Put(bytes.Clone(data))
		return c.Send(wire.MsgHandle, binary.AppendVarint(nil, h))
	case wire.MsgFetchClass:
		r := frame.Cursor{Buf: payload}
		name := r.Str()
		if r.Err != nil {
			return sendErr(r.Err)
		}
		f, ok := s.eng.Catalog().Function(name)
		if !ok || len(f.Code) == 0 {
			return sendErr(fmt.Errorf("server: no portable class stored for function %q", name))
		}
		w := frame.AppendBytes(frame.AppendString(nil, f.Name), f.Code)
		w = binary.AppendUvarint(w, uint64(len(f.ArgKinds)))
		for _, k := range f.ArgKinds {
			w = append(w, byte(k))
		}
		return c.Send(wire.MsgClass, append(w, byte(f.Return)))
	default:
		return sendErr(fmt.Errorf("server: unknown request type 0x%02x", typ))
	}
}

// handleQuery runs one statement under admission control: the drain
// set (so Shutdown can wait for it), then the concurrent-query gate.
// Shed queries get a typed retryable error; the statement never ran.
func (s *Server) handleQuery(c *wire.Conn, sess *session, payload []byte) error {
	r := frame.Cursor{Buf: payload}
	q := r.Str()
	if r.Err != nil {
		return c.Send(wire.MsgError, errorPayload(r.Err))
	}
	if !s.beginStmt() {
		return c.Send(wire.MsgError, errorPayload(core.NewFault(core.FaultOverload, "admit", errDraining)))
	}
	// Done only after the result frame is written: a drained shutdown
	// must never close a connection between execution and the ack.
	defer s.stmts.Done()
	gateStart := time.Now()
	release, admit := s.queryGate.Acquire(s.opts.AdmissionWait)
	if admit != nil {
		return c.Send(wire.MsgError, errorPayload(core.NewFault(core.FaultOverload, "admit", admit)))
	}
	sess.eng.NoteAdmissionWait(time.Since(gateStart))
	obsQueriesTot.Inc()
	obsQueriesIn.Add(1)
	// The slot and gauge are released via defer so a panicking statement
	// (recovered in handle) cannot leak a MaxConcurrentQueries slot; the
	// closure keeps the release ahead of the result write, so a stalled
	// client draining its result frame does not hold an execution slot.
	res, execErr := func() (*engine.Result, error) {
		defer release()
		defer obsQueriesIn.Add(-1)
		return sess.eng.Exec(q)
	}()
	if execErr != nil {
		return c.Send(wire.MsgError, errorPayload(execErr))
	}
	return c.Send(wire.MsgResult, wire.EncodeResult(res.Schema, res.Rows, res.RowsAffected, res.Message, res.Plan))
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// String identifies the server for logs.
func (s *Server) String() string {
	return strings.TrimSpace("predator-server@" + s.Addr())
}
