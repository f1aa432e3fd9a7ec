package isolate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"predator/internal/core"
	"predator/internal/frame"
	"predator/internal/jvm"
	"predator/internal/types"
)

// MuxExecutor is the parent-side handle to one executor process: a
// single child carrying many streams, each stream an independent
// (tenant, UDF) binding with at most one invocation in flight. The
// fleet shares one MuxExecutor among many queries; a fleetless or
// quarantined UDF owns a private one with a single stream.
//
// No goroutine owns the read side of the pipe. A waiting stream reads
// the pipe itself whenever no other waiter is reading (see next), and
// routes the frames it reads for other streams to their channels.
// Writers interleave tagged frames under a write lock.
//
// Failure policy is deliberately blunt: any protocol violation, pipe
// break or deadline expiry destroys the entire process. The stream that
// caused the fault gets its precise classification (FaultTimeout,
// FaultProtocol). On a shared executor every other resident stream gets
// FaultExecutorLost, which is retryable: the fleet reopens the stream
// on a healthy executor. On a private executor the sole stream gets the
// class of the death itself, recorded by destroy.
type MuxExecutor struct {
	sup     Supervision
	cmd     *exec.Cmd
	conn    *frame.Conn
	private bool

	// wmu serializes frame writes (many streams share the pipe).
	wmu sync.Mutex

	// rtok is the one-slot reader token: the waiter holding it is the
	// only one reading the pipe.
	rtok chan struct{}

	// mu guards stream/warm bookkeeping.
	mu       sync.Mutex
	streams  map[uint64]*MuxStream
	warm     map[string]struct{}
	nextID   uint64
	lastPong int64 // unix-nano of the last successful ping

	// dead closes exactly once when the process is destroyed for any
	// reason; deadClass and deadErr record why.
	dead      chan struct{}
	deadOnce  sync.Once
	deadClass core.FaultClass
	deadErr   error

	// waited closes once the background reaper has collected the child.
	waited  chan struct{}
	waitErr error

	pongCh chan muxFrame
}

// muxFrame is one routed frame delivered to a stream.
type muxFrame struct {
	typ     byte
	payload []byte
}

// MuxStream is one open stream on a multiplexed executor. A stream
// carries at most one invocation at a time (concurrency comes from
// opening more streams); it is not safe for concurrent use.
type MuxStream struct {
	m  *MuxExecutor
	id uint64

	// ch receives this stream's routed frames. The protocol guarantees
	// at most one undelivered frame per stream (the child sends one
	// result, error, ready or callback and then waits), so a two-slot
	// channel with double-buffered payload scratch never blocks the
	// reader; a child violating that is destroyed as babbling.
	ch      chan muxFrame
	scratch [2][]byte
	si      int
}

// VMSetup describes the Jaguar UDF a stream should host (Design 4).
type VMSetup struct {
	ClassBytes []byte
	Method     string
	Limits     jvm.Limits
}

// StreamSetup describes the UDF binding a new stream needs (exactly one
// of Native and VM set).
type StreamSetup struct {
	Native string
	VM     *VMSetup
}

// StartMux launches an executor process whose streams may be shared by
// many queries (a fleet slot).
func StartMux(sup Supervision) (*MuxExecutor, error) { return startMux(sup, false) }

// startMux re-executes the current binary with ExecutorEnv set and
// waits for the child's ready frame under sup.StartTimeout. A private
// executor carries the sole stream of one UDF, so that stream's faults
// keep the class of the executor's death.
func startMux(sup Supervision, private bool) (*MuxExecutor, error) {
	sup = sup.withDefaults()
	self, err := os.Executable()
	if err != nil {
		return nil, core.NewFault(core.FaultExecutor, "start", fmt.Errorf("locate executable: %w", err))
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), ExecutorEnv+"=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, core.NewFault(core.FaultExecutor, "start", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, core.NewFault(core.FaultExecutor, "start", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, core.NewFault(core.FaultExecutor, "start", fmt.Errorf("start executor: %w", err))
	}
	cStarts.Inc()
	m := &MuxExecutor{
		sup:     sup,
		cmd:     cmd,
		conn:    frame.NewConn(stdout, stdin),
		private: private,
		rtok:    make(chan struct{}, 1),
		streams: make(map[uint64]*MuxStream),
		warm:    make(map[string]struct{}),
		dead:    make(chan struct{}),
		waited:  make(chan struct{}),
		pongCh:  make(chan muxFrame, 1),
	}
	// Reap in the background: the exit status is collected exactly once,
	// no zombie remains, the child's true CPU time (rusage) is charged,
	// and a child that dies while no stream is reading is still marked
	// dead, so Done fires for the fleet supervisor.
	go func() {
		m.waitErr = cmd.Wait()
		if ps := cmd.ProcessState; ps != nil {
			cExecutorCPU.Add(int64(ps.UserTime() + ps.SystemTime()))
		}
		close(m.waited)
		m.destroy(core.FaultExecutor, errors.New("process exited"))
	}()
	// No stream exists yet, so the handshake reads the pipe directly; a
	// timer kills a child that does not become ready in time.
	t := time.AfterFunc(sup.StartTimeout, func() { m.expire("start", sup.StartTimeout) })
	typ, _, err := m.conn.Recv()
	if !t.Stop() {
		return nil, m.timeoutFault("start", sup.StartTimeout)
	}
	if err != nil {
		m.destroy(classifyRecvErr(err), err)
		return nil, core.NewFault(m.deadClass, "start", m.deathErr())
	}
	if typ != msgReady {
		return nil, m.fail(core.FaultProtocol, "start", fmt.Errorf("unexpected first message %d", typ))
	}
	m.rtok <- struct{}{}
	return m, nil
}

// classifyRecvErr distinguishes a babbling child (invalid framing —
// the protocol itself was violated) from a dead one (broken pipe).
func classifyRecvErr(err error) core.FaultClass {
	if errors.Is(err, frame.ErrFrameSize) {
		return core.FaultProtocol
	}
	return core.FaultExecutor
}

// next blocks for the next frame routed to ch. Whenever no other waiter
// holds the reader token, the caller takes it and reads the pipe
// itself, routing other streams' frames and pongs to their channels,
// until a frame for ch arrives. ok is false once the executor is dead.
func (m *MuxExecutor) next(ch chan muxFrame) (f muxFrame, ok bool) {
	select {
	case f = <-ch:
		return f, true
	case <-m.dead:
	case <-m.rtok:
		ok = m.read(ch)
		m.rtok <- struct{}{}
		if ok {
			return <-ch, true
		}
	}
	// A frame routed before the death still counts.
	select {
	case f = <-ch:
		return f, true
	default:
		return muxFrame{}, false
	}
}

// read routes frames while its caller holds the reader token, until one
// lands in ch (true) or the executor is destroyed (false): by a broken
// or babbling pipe here, or by a deadline or Close elsewhere, whose kill
// makes the blocked read return. Nothing is read after the death: the
// pipe may hold the rest of a frame whose header was garbage.
func (m *MuxExecutor) read(ch chan muxFrame) bool {
	for len(ch) == 0 {
		if !m.Alive() {
			return false
		}
		typ, payload, err := m.conn.Recv()
		if err != nil {
			m.destroy(classifyRecvErr(err), err)
			return false
		}
		if err := m.route(typ, payload); err != nil {
			m.destroy(core.FaultProtocol, err)
			return false
		}
	}
	return true
}

// route strips the stream tag from a frame and delivers it to the
// owning stream (pongs to the ping waiter), copying the payload out of
// the receive scratch.
func (m *MuxExecutor) route(typ byte, payload []byte) error {
	r := frame.Cursor{Buf: payload}
	sid := r.Uvarint()
	if r.Err != nil {
		return fmt.Errorf("untagged frame %d", typ)
	}
	if typ == msgPong && sid == 0 {
		select {
		case m.pongCh <- muxFrame{typ: msgPong}:
		default:
		}
		return nil
	}
	m.mu.Lock()
	s := m.streams[sid]
	m.mu.Unlock()
	if s == nil {
		// A frame for a stream closed parent-side mid-flight (e.g. a
		// result racing CloseStream). Dropping it is safe: nobody is
		// waiting, and the child has no per-frame state.
		return nil
	}
	buf := append(s.scratch[s.si][:0], r.Rest()...)
	s.scratch[s.si] = buf
	s.si ^= 1
	select {
	case s.ch <- muxFrame{typ: typ, payload: buf}:
		return nil
	default:
		return fmt.Errorf("stream %d flooded (frame %d)", sid, typ)
	}
}

// await returns the next frame routed to ch. A non-zero deadline arms a
// timer that destroys the process; the blocked read then returns, and
// the expiry is this waiter's FaultTimeout.
func (m *MuxExecutor) await(ch chan muxFrame, op string, deadline time.Time) (muxFrame, error) {
	var t *time.Timer
	var d time.Duration
	if !deadline.IsZero() {
		if d = time.Until(deadline); d <= 0 {
			m.expire(op, 0)
			return muxFrame{}, m.timeoutFault(op, 0)
		}
		t = time.AfterFunc(d, func() { m.expire(op, d) })
	}
	f, ok := m.next(ch)
	if t != nil && !t.Stop() {
		return muxFrame{}, m.timeoutFault(op, d)
	}
	if !ok {
		return muxFrame{}, m.lost(op)
	}
	return f, nil
}

// expire destroys the executor for a deadline that fired.
func (m *MuxExecutor) expire(op string, d time.Duration) {
	cTimeouts.Inc()
	m.destroy(core.FaultTimeout, fmt.Errorf("no %s reply within %v", op, d.Round(time.Millisecond)))
}

// timeoutFault reports an expired deadline once the killed child is
// reaped.
func (m *MuxExecutor) timeoutFault(op string, d time.Duration) error {
	<-m.waited
	return core.Faultf(core.FaultTimeout, op, "no reply within %v (executor killed)", d.Round(time.Millisecond))
}

// destroy kills the child, records the class and cause of its death and
// wakes every waiter, exactly once.
func (m *MuxExecutor) destroy(class core.FaultClass, cause error) {
	m.deadOnce.Do(func() {
		m.deadClass, m.deadErr = class, cause
		select {
		case <-m.waited:
		default:
			m.cmd.Process.Kill()
			cKills.Inc()
		}
		close(m.dead)
	})
}

// fail destroys the executor for a fault its caller observed and
// returns that fault once the child is reaped.
func (m *MuxExecutor) fail(class core.FaultClass, op string, cause error) error {
	m.destroy(class, cause)
	<-m.waited
	return core.NewFault(class, op, cause)
}

// lost classifies a stream's view of its executor's death: the death's
// own class on a private executor, the retryable FaultExecutorLost on a
// shared one.
func (m *MuxExecutor) lost(op string) error {
	if m.private {
		return core.NewFault(m.deadClass, op, m.deathErr())
	}
	return core.NewFault(core.FaultExecutorLost, op, fmt.Errorf("shared executor lost: %v", m.deathErr()))
}

// deathErr describes the death with the child's exit status, waiting
// for the reap (the process is already killed).
func (m *MuxExecutor) deathErr() error {
	<-m.waited
	if m.waitErr != nil {
		return fmt.Errorf("executor died: %v (%v)", m.waitErr, m.deadErr)
	}
	return fmt.Errorf("executor exited (%v)", m.deadErr)
}

// Alive reports whether the process has not been destroyed.
func (m *MuxExecutor) Alive() bool {
	select {
	case <-m.dead:
		return false
	default:
		return true
	}
}

// Done is closed when the executor process dies for any reason; the
// fleet supervisor watches it to replace dead workers.
func (m *MuxExecutor) Done() <-chan struct{} { return m.dead }

// DeadErr reports why the executor died (nil while alive).
func (m *MuxExecutor) DeadErr() error {
	select {
	case <-m.dead:
		return m.deadErr
	default:
		return nil
	}
}

// PID returns the child's process id.
func (m *MuxExecutor) PID() int { return m.cmd.Process.Pid }

// Resident reports the number of open streams.
func (m *MuxExecutor) Resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams)
}

// WarmCount reports how many (tenant, UDF, token) bindings this
// executor is believed to hold warm.
func (m *MuxExecutor) WarmCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.warm)
}

// HasWarm reports whether the executor is believed to hold the keyed
// binding warm (the child may have evicted it; a cold warm-open falls
// back to a full setup transparently).
func (m *MuxExecutor) HasWarm(tenant, name, token string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.warm[warmKey(tenant, name, token)]
	return ok
}

// LastPingAge reports the time since the last successful ping (a large
// value before the first ping succeeds).
func (m *MuxExecutor) LastPingAge() time.Duration {
	m.mu.Lock()
	last := m.lastPong
	m.mu.Unlock()
	if last == 0 {
		return time.Duration(1<<62 - 1)
	}
	return time.Since(time.Unix(0, last))
}

// send writes one tagged frame under the write lock, destroying the
// executor on pipe errors. The payload, usually a builder from
// frame.Take, goes back to the pool once written.
func (m *MuxExecutor) send(op string, typ byte, payload []byte) error {
	if !m.Alive() {
		return m.lost(op)
	}
	m.wmu.Lock()
	err := m.conn.Send(typ, payload)
	m.wmu.Unlock()
	frame.Put(payload)
	if err != nil {
		m.destroy(core.FaultExecutor, err)
		return m.lost(op)
	}
	return nil
}

// Ping round-trips a stream-0 health probe. A failed or timed-out ping
// destroys the executor.
func (m *MuxExecutor) Ping(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = m.sup.PingTimeout
	}
	// Drain a stale pong from a previously timed-out probe.
	select {
	case <-m.pongCh:
	default:
	}
	if err := m.send("ping", msgPing, binary.AppendUvarint(nil, 0)); err != nil {
		return err
	}
	if _, err := m.await(m.pongCh, "ping", time.Now().Add(timeout)); err != nil {
		return err
	}
	m.mu.Lock()
	m.lastPong = time.Now().UnixNano()
	m.mu.Unlock()
	return nil
}

// OpenStream binds a new stream for (tenant, name, token). It first
// attempts a warm open when the executor is believed to hold the
// binding; a cold miss (the child evicted it) falls back to the full
// setup transparently. The returned warm flag reports whether setup
// work was skipped.
func (m *MuxExecutor) OpenStream(tenant, name, token string, setup StreamSetup) (*MuxStream, bool, error) {
	key := warmKey(tenant, name, token)
	m.mu.Lock()
	if !m.Alive() {
		m.mu.Unlock()
		return nil, false, m.lost("setup")
	}
	m.nextID++
	s := &MuxStream{m: m, id: m.nextID, ch: make(chan muxFrame, 2)}
	m.streams[s.id] = s
	_, tryWarm := m.warm[key]
	m.mu.Unlock()

	deadline := time.Now().Add(m.sup.SetupTimeout)
	if tryWarm {
		err := m.openAttempt(s, streamWarm, tenant, name, token, setup, deadline)
		if err == nil {
			return s, true, nil
		}
		if core.FaultClassOf(err) != core.FaultUDF {
			m.dropStream(s)
			return nil, false, err
		}
		// Cold: the child evicted the binding. Fall through to full
		// setup on the same stream ID (the failed open left no stream
		// state child-side).
		m.mu.Lock()
		delete(m.warm, key)
		m.mu.Unlock()
	}
	kind := streamNative
	if setup.VM != nil {
		kind = streamVM
	}
	if err := m.openAttempt(s, kind, tenant, name, token, setup, deadline); err != nil {
		m.dropStream(s)
		return nil, false, err
	}
	m.mu.Lock()
	m.warm[key] = struct{}{}
	m.mu.Unlock()
	return s, false, nil
}

// openAttempt sends one msgOpenStream and waits for the tagged reply.
func (m *MuxExecutor) openAttempt(s *MuxStream, kind byte, tenant, name, token string, setup StreamSetup, deadline time.Time) error {
	buf := append(binary.AppendUvarint(frame.Take(), s.id), kind)
	buf = frame.AppendString(buf, tenant)
	buf = frame.AppendString(buf, name)
	buf = frame.AppendString(buf, token)
	if kind != streamWarm {
		buf = appendSetup(buf, setup)
	}
	if err := m.send("setup", msgOpenStream, buf); err != nil {
		return err
	}
	f, err := m.await(s.ch, "setup", deadline)
	if err != nil {
		return err
	}
	switch f.typ {
	case msgReady:
		return nil
	case msgError:
		// A clean rejection: the UDF (name, class) is bad, the executor
		// itself is healthy and restarting cannot help.
		r := &frame.Cursor{Buf: f.payload}
		return core.Faultf(core.FaultUDF, "setup", "executor setup failed: %s", r.Str())
	default:
		return m.fail(core.FaultProtocol, "setup", fmt.Errorf("unexpected setup reply %d", f.typ))
	}
}

// appendSetup encodes a full stream setup: the native name, or the VM
// class bytes, method and limits.
func appendSetup(buf []byte, setup StreamSetup) []byte {
	if setup.VM == nil {
		return frame.AppendString(buf, setup.Native)
	}
	buf = frame.AppendString(frame.AppendBytes(buf, setup.VM.ClassBytes), setup.VM.Method)
	buf = binary.AppendVarint(buf, setup.VM.Limits.Fuel)
	buf = binary.AppendVarint(buf, setup.VM.Limits.MaxAllocBytes)
	return binary.AppendVarint(buf, int64(setup.VM.Limits.MaxCallDepth))
}

// dropStream unregisters a stream parent-side (no wire traffic).
func (m *MuxExecutor) dropStream(s *MuxStream) {
	m.mu.Lock()
	delete(m.streams, s.id)
	m.mu.Unlock()
}

// CloseStream releases a stream: fire-and-forget, the child drops the
// stream but keeps its binding warm for the next open.
func (m *MuxExecutor) CloseStream(s *MuxStream) {
	m.dropStream(s)
	if m.Alive() {
		_ = m.send("close", msgCloseStream, binary.AppendUvarint(frame.Take(), s.id))
	}
}

// sendTraceCtx precedes a traced invocation with a tagged msgTraceCtx
// frame arming span recording on this stream. Untraced invocations
// send nothing.
func (s *MuxStream) sendTraceCtx(ctx *core.Ctx) (bool, error) {
	if ctx == nil || !ctx.Trace.Detailed() {
		return false, nil
	}
	buf := binary.AppendUvarint(frame.Take(), s.id)
	buf = binary.AppendUvarint(buf, uint64(ctx.Trace.ID()))
	buf = binary.AppendUvarint(buf, 0) // parent span ID (reserved)
	if err := s.m.send("invoke", msgTraceCtx, buf); err != nil {
		return false, err
	}
	return true, nil
}

// cross carries one invocation: it sends the payload (a pooled builder)
// as a frame of type typ, then serves the UDF's callbacks until the
// reply of type want arrives. The whole crossing, callbacks included,
// runs under the merged deadline of the supervision policy's
// InvokeTimeout and ctx.Deadline. A msgError reply is the UDF's own
// failure (FaultUDF); the executor survives it.
func (s *MuxStream) cross(ctx *core.Ctx, typ, want byte, payload []byte) (f muxFrame, traced bool, err error) {
	cInvocations.Inc()
	deadline := deadlineFor(s.m.sup.InvokeTimeout, ctx)
	traced, err = s.sendTraceCtx(ctx)
	if err == nil {
		err = s.m.send("invoke", typ, payload)
	}
	for err == nil {
		if f, err = s.m.await(s.ch, "invoke", deadline); err != nil {
			break
		}
		switch f.typ {
		case want:
			return f, traced, nil
		case msgError:
			r := &frame.Cursor{Buf: f.payload}
			err = core.Faultf(core.FaultUDF, "invoke", "UDF failed: %s", r.Str())
		case msgCallback:
			err = s.serveCallback(ctx, f.payload)
		default:
			err = s.m.fail(core.FaultProtocol, "invoke", fmt.Errorf("unexpected message %d during invoke", f.typ))
		}
	}
	return muxFrame{}, false, err
}

// Invoke evaluates one row on this stream. Arguments and the result are
// copied across the process boundary; callbacks made by the UDF are
// served by ctx.Callback, each one a round trip.
func (s *MuxStream) Invoke(ctx *core.Ctx, args []types.Value) (types.Value, error) {
	buf := binary.AppendUvarint(frame.Take(), s.id)
	buf = binary.AppendUvarint(buf, uint64(len(args)))
	for _, a := range args {
		buf = types.EncodeValue(buf, a)
	}
	f, traced, err := s.cross(ctx, msgInvoke, msgResult, buf)
	if err != nil {
		return types.Value{}, err
	}
	r := &frame.Cursor{Buf: f.payload}
	v := r.Value()
	if r.Err != nil {
		return types.Value{}, s.m.fail(core.FaultProtocol, "invoke", r.Err)
	}
	if traced {
		s.mergeChildSpans(ctx, r)
	}
	return v.Clone(), nil
}

// InvokeBatch evaluates len(out) rows in one crossing on this stream
// (msgInvokeBatch carries every argument vector; msgResultBatch carries
// every result). Per-row UDF failures come back in out[i].Err and do
// not poison sibling rows; a non-nil return is a whole-batch fault.
func (s *MuxStream) InvokeBatch(ctx *core.Ctx, arity int, args []types.Value, out []core.BatchResult) error {
	buf := binary.AppendUvarint(frame.Take(), s.id)
	buf = binary.AppendUvarint(buf, uint64(len(out)))
	buf = binary.AppendUvarint(buf, uint64(arity))
	for _, a := range args {
		buf = types.EncodeValue(buf, a)
	}
	f, traced, err := s.cross(ctx, msgInvokeBatch, msgResultBatch, buf)
	if err != nil {
		return err
	}
	r := &frame.Cursor{Buf: f.payload}
	if n := r.Uvarint(); r.Err == nil && n != uint64(len(out)) {
		return s.m.fail(core.FaultProtocol, "invoke", fmt.Errorf("batch reply has %d rows, expected %d", n, len(out)))
	}
	// A malformed row fails the whole batch, whatever out[i] then holds.
	for i := range out {
		switch status := r.Byte(); status {
		case 0:
			out[i] = core.BatchResult{Value: r.Value().Clone()}
		case 1:
			out[i] = core.BatchResult{Err: core.Faultf(core.FaultUDF, "invoke", "UDF failed at batch row %d: %s", i, r.Str())}
		default:
			r.Err = fmt.Errorf("bad batch row status %d at row %d", status, i)
		}
		if r.Err != nil {
			return s.m.fail(core.FaultProtocol, "invoke", r.Err)
		}
	}
	decodeChildCPU(r, ctx)
	if traced {
		s.mergeChildSpans(ctx, r)
	}
	return nil
}

// decodeChildCPU consumes the CPU-attribution uvarint a child appends
// after the rows of a msgResultBatch frame and accumulates it on the
// invocation context. Like span tails, the value is diagnostics: a
// missing or malformed tail is ignored rather than failing the
// invocation (the rows already decoded), and the reader's error state
// is reset so a traced span tail after it can still be attempted.
func decodeChildCPU(r *frame.Cursor, ctx *core.Ctx) {
	cpu := r.Uvarint()
	if r.Err != nil {
		r.Err = nil
		return
	}
	ctx.AddReportedCPU(time.Duration(cpu))
}

// mergeChildSpans folds the span tail of a traced result frame into the
// invocation's trace, attributed to the child's PID. A missing or
// malformed tail is ignored: the result already decoded, and spans are
// diagnostics.
func (s *MuxStream) mergeChildSpans(ctx *core.Ctx, r *frame.Cursor) {
	if recs := decodeChildSpans(r); len(recs) > 0 {
		ctx.Trace.Merge(recs, s.m.PID())
	}
}

// serveCallback answers one callback request from this stream's UDF.
func (s *MuxStream) serveCallback(ctx *core.Ctx, payload []byte) error {
	r := &frame.Cursor{Buf: payload}
	op := r.Byte()
	handle := r.Varint()
	off := r.Varint()
	length := r.Varint()
	if r.Err != nil {
		return s.m.fail(core.FaultProtocol, "callback", r.Err)
	}
	// Replies are the stream tag, an ok flag and the op's result.
	tag := binary.AppendUvarint(frame.Take(), s.id)
	reply := func(payload []byte) error { return s.m.send("callback", msgCBResult, payload) }
	fail := func(err error) error {
		return reply(frame.AppendString(append(tag, 0), err.Error()))
	}
	if ctx == nil || ctx.Callback == nil {
		return fail(fmt.Errorf("no callback handler installed"))
	}
	switch op {
	case cbSize:
		n, err := ctx.Callback.Size(handle)
		if err != nil {
			return fail(err)
		}
		return reply(binary.AppendVarint(append(tag, 1), n))
	case cbGet:
		b, err := ctx.Callback.Get(handle, off)
		if err != nil {
			return fail(err)
		}
		return reply(binary.AppendVarint(append(tag, 1), int64(b)))
	case cbRead:
		data, err := ctx.Callback.Read(handle, off, length)
		if err != nil {
			return fail(err)
		}
		return reply(frame.AppendBytes(append(tag, 1), data))
	case cbTouch:
		if err := ctx.Callback.Touch(handle); err != nil {
			return fail(err)
		}
		return reply(binary.AppendVarint(append(tag, 1), 0))
	default:
		return fail(fmt.Errorf("unknown callback op %d", op))
	}
}

// Close shuts the executor down: polite msgShutdown, a grace period,
// then SIGKILL, so Close can never hang on a wedged child.
func (m *MuxExecutor) Close() error {
	if m.Alive() {
		m.wmu.Lock()
		_ = m.conn.Send(msgShutdown, binary.AppendUvarint(nil, 0))
		m.wmu.Unlock()
		t := time.NewTimer(m.sup.ShutdownGrace)
		defer t.Stop()
		select {
		case <-m.waited:
		case <-t.C:
		}
	}
	m.destroy(core.FaultExecutor, errors.New("closed"))
	<-m.waited
	return nil
}
