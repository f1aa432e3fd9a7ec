package isolate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"predator/internal/core"
	"predator/internal/frame"
	"predator/internal/jvm"
	"predator/internal/types"
)

// NativeTable maps native UDF names to implementations available in
// executor processes. Programs that host isolated native UDFs must
// pass the same table to MaybeRunExecutor that they use to register
// the UDFs, so parent and child agree on implementations.
type NativeTable map[string]core.NativeFunc

// MaybeRunExecutor turns the current process into a UDF executor when
// ExecutorEnv is set, never returning in that case (the process exits
// when the parent closes the pipe). Call it first thing in main (and
// in TestMain of tests that exercise isolated UDFs).
func MaybeRunExecutor(natives NativeTable) {
	if os.Getenv(ExecutorEnv) != "1" {
		return
	}
	err := RunExecutor(os.Stdin, os.Stdout, natives)
	if err != nil && err != io.EOF {
		fmt.Fprintf(os.Stderr, "udf-executor: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// warmCacheCap bounds the child-side warm (tenant, UDF, token) binding
// cache of a multiplexed executor. Evicted bindings stay alive for any
// stream still using them; only the recycling entry is dropped.
const warmCacheCap = 64

// RunExecutor serves the executor protocol on the given pipe until
// shutdown or EOF. Exported separately from MaybeRunExecutor for tests
// that run the executor loop in-process over synthetic pipes.
//
// Every frame payload in both directions starts with a uvarint stream
// ID, from the child's first msgReady on. Stream 0 carries the ready,
// ping/pong and shutdown frames; every stream opened by msgOpenStream
// has its own UDF binding, and all of them share the single pipe.
func RunExecutor(r io.Reader, w io.Writer, natives NativeTable) error {
	c := frame.NewConn(r, w)
	fault := parseFaultSpec(os.Getenv(FaultEnv))
	fault.fire("ready", c)
	if err := c.Send(msgReady, binary.AppendUvarint(nil, 0)); err != nil {
		return err
	}
	st := &childState{
		conn: c, natives: natives, fault: fault,
		streams: make(map[uint64]*childStream),
		warm:    make(map[string]*warmEntry),
	}
	for {
		var f muxFrame
		var err error
		if len(st.pending) > 0 {
			// Frames that arrived while a callback round trip owned the
			// pipe were queued; drain them before reading fresh input.
			f, st.pending = st.pending[0], st.pending[1:]
		} else if f.typ, f.payload, err = c.Recv(); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
		if done, err := st.handle(f.typ, f.payload); done || err != nil {
			return err
		}
	}
}

// binding is one resolved UDF implementation (exactly one side set),
// kept per warm-cache entry and shared by every stream opened against
// the same (tenant, UDF, token) key.
type binding struct {
	nativeFn core.NativeFunc
	vmClass  *jvm.LoadedClass
	vmMethod string
	vmLimits jvm.Limits
}

// childStream is one open stream: a binding plus the per-stream trace
// arming (msgTraceCtx applies to the stream it tags, not to the whole
// process). setup is the span of the stream's full setup, shipped with
// its first traced result so a trace shows executor setup cost even
// when setup predates tracing.
type childStream struct {
	bind   *binding
	traced bool
	setup  *childSpan
}

// warmEntry is one recyclable (tenant, UDF, token) binding with its
// last-use tick for LRU eviction.
type warmEntry struct {
	bind *binding
	last uint64
}

// childState is the executor's protocol state.
type childState struct {
	conn    *frame.Conn
	natives NativeTable
	fault   *faultPlan

	// Open streams, the warm binding cache, the stream the frame being
	// handled belongs to (curSID; cur once it resolves to an open
	// stream), and frames queued during callback waits.
	streams map[uint64]*childStream
	warm    map[string]*warmEntry
	warmSeq uint64
	cur     *childStream
	curSID  uint64
	pending []muxFrame

	// argBuf/respBuf are grow-only scratch buffers: invoke frames are
	// copied out of the connection's receive scratch (which a nested
	// callback round trip would clobber) and batch replies are built
	// without per-batch allocation.
	argBuf  []byte
	respBuf []byte

	// traced marks the current invoke as span-recorded (armed by a
	// preceding msgTraceCtx on its stream, cleared when the result
	// ships). spanSeq allocates child-local span IDs; the parent remaps
	// them on merge.
	traced  bool
	spanSeq uint64
	spans   []childSpan
}

// tag prefixes a reply payload with the current stream ID.
func (st *childState) tag(buf []byte) []byte {
	return binary.AppendUvarint(buf, st.curSID)
}

// handle dispatches one frame. Every payload starts with the uvarint
// stream ID; the remainder is the frame type's own encoding.
func (st *childState) handle(typ byte, payload []byte) (done bool, err error) {
	r := &frame.Cursor{Buf: payload}
	sid := r.Uvarint()
	if r.Err != nil {
		st.curSID = 0
		st.fail("bad stream tag on message %d: %v", typ, r.Err)
		return false, nil
	}
	st.curSID = sid
	switch typ {
	case msgOpenStream:
		st.openStream(sid, r)
	case msgCloseStream:
		delete(st.streams, sid)
	case msgInvoke, msgInvokeBatch:
		s := st.streams[sid]
		if s == nil {
			st.fail("invoke on unknown stream %d", sid)
			return false, nil
		}
		st.cur = s
		st.traced = s.traced
		s.traced = false
		st.fault.fire("invoke", st.conn)
		args := st.stable(r)
		if typ == msgInvoke {
			st.invoke(&args)
		} else {
			st.invokeBatch(&args)
		}
	case msgTraceCtx:
		r.Uvarint() // trace ID
		r.Uvarint() // parent span ID
		if r.Err != nil {
			st.fail("bad trace frame: %v", r.Err)
			return false, nil
		}
		if s := st.streams[sid]; s != nil {
			s.traced = true
		}
	case msgPing:
		st.curSID = 0
		if err := st.conn.Send(msgPong, st.tag(nil)); err != nil {
			return false, err
		}
	case msgShutdown:
		st.fault.fire("shutdown", st.conn)
		return true, nil
	default:
		st.fail("unexpected message %d", typ)
	}
	return false, nil
}

// openStream binds a new stream. streamWarm recycles a cached binding
// and fails cleanly when cold so the parent can retry with a full
// setup; streamNative/streamVM fire the setup fault point, run a full
// setup and deposit the binding in the warm cache for future streams
// keyed the same way.
func (st *childState) openStream(sid uint64, r *frame.Cursor) {
	kind := r.Byte()
	tenant := r.Str()
	name := r.Str()
	token := r.Str()
	if r.Err != nil {
		st.fail("bad open-stream frame: %v", r.Err)
		return
	}
	key := warmKey(tenant, name, token)
	st.warmSeq++
	s := &childStream{}
	switch kind {
	case streamWarm:
		e, ok := st.warm[key]
		if !ok {
			st.fail("cold stream: no warm binding for %s/%s", tenant, name)
			return
		}
		e.last = st.warmSeq
		s.bind = e.bind
	case streamNative, streamVM:
		st.fault.fire("setup", st.conn)
		start := time.Now()
		var b *binding
		var err error
		if kind == streamNative {
			b, err = st.bindNative(r.Str())
		} else {
			b, err = st.bindVM(r)
		}
		if r.Err != nil {
			st.fail("bad open-stream frame: %v", r.Err)
			return
		}
		if err != nil {
			st.fail("%v", err)
			return
		}
		st.cacheWarm(key, b)
		s.bind = b
		s.setup = &childSpan{id: st.newSpanID(), name: "child/setup", start: start, dur: time.Since(start)}
	default:
		st.fail("unknown stream kind %d", kind)
		return
	}
	st.streams[sid] = s
	_ = st.conn.Send(msgReady, st.tag(nil))
}

// warmKey builds the warm-cache key. The token fingerprints the setup
// payload, so a replaced UDF (same name, new class bytes) misses the
// cache instead of recycling stale state.
func warmKey(tenant, name, token string) string {
	return tenant + "\x00" + name + "\x00" + token
}

// cacheWarm deposits a binding, evicting the least recently used entry
// beyond the cache cap.
func (st *childState) cacheWarm(key string, b *binding) {
	st.warm[key] = &warmEntry{bind: b, last: st.warmSeq}
	if len(st.warm) <= warmCacheCap {
		return
	}
	var victim string
	var oldest uint64 = ^uint64(0)
	for k, e := range st.warm {
		if e.last < oldest {
			oldest, victim = e.last, k
		}
	}
	delete(st.warm, victim)
}

// newSpanID allocates a child-local span ID.
func (st *childState) newSpanID() uint64 {
	st.spanSeq++
	return st.spanSeq
}

// addSpan records a span for the current shipment, dropping beyond the
// protocol cap.
func (st *childState) addSpan(s childSpan) {
	if len(st.spans) < maxChildSpans {
		st.spans = append(st.spans, s)
	}
}

// sealSpans appends the recorded spans (plus the stream's unsent setup
// span, if any) to a result payload and disarms tracing for the next
// frame.
func (st *childState) sealSpans(resp []byte) []byte {
	if s := st.cur; s.setup != nil {
		st.addSpan(*s.setup)
		s.setup = nil
	}
	resp = appendChildSpans(resp, st.spans)
	st.spans = st.spans[:0]
	st.traced = false
	return resp
}

// stable copies the rest of a frame payload into the child's own
// scratch so the decoded argument values stay valid across callback
// round trips that reuse the connection's receive buffer.
func (st *childState) stable(r *frame.Cursor) frame.Cursor {
	st.argBuf = append(st.argBuf[:0], r.Rest()...)
	return frame.Cursor{Buf: st.argBuf}
}

func (st *childState) fail(format string, args ...any) {
	// Error frames carry no span tail; drop any recorded spans so they
	// do not leak into a later (differently traced) shipment.
	st.traced = false
	st.spans = st.spans[:0]
	_ = st.conn.Send(msgError, frame.AppendString(st.tag(nil), fmt.Sprintf(format, args...)))
}

// bindNative resolves a native UDF binding.
func (st *childState) bindNative(name string) (*binding, error) {
	fn, ok := st.natives[name]
	if !ok {
		return nil, fmt.Errorf("native UDF %q is not in the executor's native table", name)
	}
	return &binding{nativeFn: fn}, nil
}

// bindVM loads and re-verifies a shipped Jaguar class, reading the VM
// setup fields (class bytes, method, limits) from r.
func (st *childState) bindVM(r *frame.Cursor) (*binding, error) {
	classBytes := r.Bytes()
	method := r.Str()
	fuel := r.Varint()
	mem := r.Varint()
	depth := r.Varint()
	if r.Err != nil {
		return nil, nil // caller reports the frame error
	}
	// A fresh VM per binding: full isolation, default-deny policy is
	// irrelevant here because the whole process is expendable, but the
	// VM still re-verifies the class.
	vm := jvm.New(jvm.Options{Security: jvm.AllowAll()})
	lc, err := vm.NewLoader("executor").Load(append([]byte(nil), classBytes...))
	if err != nil {
		return nil, fmt.Errorf("load class: %v", err)
	}
	return &binding{
		vmClass:  lc,
		vmMethod: method,
		vmLimits: jvm.Limits{Fuel: fuel, MaxAllocBytes: mem, MaxCallDepth: int(depth)},
	}, nil
}

func (st *childState) invoke(r *frame.Cursor) {
	args := make([]types.Value, r.Count(1)) // a value is at least its tag
	for i := range args {
		args[i] = r.Value()
	}
	if r.Err != nil {
		st.fail("bad invoke frame: %v", r.Err)
		return
	}
	var inv childSpan
	if st.traced {
		inv = childSpan{id: st.newSpanID(), name: "child/invoke", start: time.Now()}
	}
	cb := &proxyCallback{st: st, parent: inv.id, sid: st.curSID}
	out, err := st.run(cb, args, inv.id)
	if err != nil {
		st.fail("%v", err)
		return
	}
	st.fault.fire("result", st.conn)
	resp := st.tag(st.respBuf[:0])
	resp = types.EncodeValue(resp, out)
	if st.traced {
		inv.dur = time.Since(inv.start)
		st.addSpan(inv)
		resp = st.sealSpans(resp)
	}
	st.respBuf = resp
	_ = st.conn.Send(msgResult, resp)
}

// run evaluates one row with whatever UDF is bound. parent is the span
// to hang VM-execution spans under (0 when untraced).
func (st *childState) run(cb *proxyCallback, args []types.Value, parent uint64) (types.Value, error) {
	if b := st.cur.bind; b.nativeFn != nil {
		return b.nativeFn(&core.Ctx{Callback: cb}, args)
	}
	return st.invokeVM(cb, args, parent)
}

// invokeBatch evaluates every row of one msgInvokeBatch frame and
// replies with a single msgResultBatch frame: one crossing in, one
// crossing out, however many rows ride inside. Per-row UDF failures are
// encoded as per-row errors; only a malformed frame aborts the batch.
func (st *childState) invokeBatch(r *frame.Cursor) {
	n := int(r.Uvarint())
	arity := int(r.Uvarint())
	if r.Err != nil || n < 0 || arity < 0 {
		st.fail("bad batch invoke frame: %v", r.Err)
		return
	}
	var inv childSpan
	if st.traced {
		inv = childSpan{id: st.newSpanID(), name: "child/invoke", start: time.Now()}
	}
	cb := &proxyCallback{st: st, parent: inv.id, sid: st.curSID}
	resp := st.tag(st.respBuf[:0])
	resp = binary.AppendUvarint(resp, uint64(n))
	args := make([]types.Value, arity)
	cpuStart := selfCPUNanos()
	for i := 0; i < n; i++ {
		st.fault.fireBatchRow(i, st.conn, st.curSID)
		for j := 0; j < arity; j++ {
			args[j] = r.Value()
		}
		if r.Err != nil {
			st.fail("bad batch invoke frame at row %d: %v", i, r.Err)
			return
		}
		out, err := st.run(cb, args, inv.id)
		if err != nil {
			resp = frame.AppendString(append(resp, 1), err.Error())
			continue
		}
		resp = types.EncodeValue(append(resp, 0), out)
	}
	st.fault.fire("result", st.conn)
	// CPU-attribution tail: the executor's user+system CPU consumed by
	// this batch, so the parent can charge the owning tenant precisely
	// instead of by wall clock. Rides only on the batch frame.
	cpu := selfCPUNanos() - cpuStart
	if cpu < 0 {
		cpu = 0
	}
	resp = binary.AppendUvarint(resp, uint64(cpu))
	if st.traced {
		inv.dur = time.Since(inv.start)
		st.addSpan(inv)
		resp = st.sealSpans(resp)
	}
	st.respBuf = resp
	_ = st.conn.Send(msgResultBatch, resp)
}

func (st *childState) invokeVM(cb jvm.Callback, args []types.Value, parent uint64) (types.Value, error) {
	b := st.cur.bind
	cls := b.vmClass.Class()
	mi := cls.MethodIndex(b.vmMethod)
	if mi < 0 {
		return types.Value{}, fmt.Errorf("class has no method %q", b.vmMethod)
	}
	m := &cls.Methods[mi]
	if len(args) != len(m.Params) {
		return types.Value{}, fmt.Errorf("method takes %d args, got %d", len(m.Params), len(args))
	}
	vargs := make([]jvm.Value, len(args))
	for i, a := range args {
		v, err := jvm.ToVM(a)
		if err != nil {
			return types.Value{}, err
		}
		vargs[i] = v
	}
	var start time.Time
	if st.traced {
		start = time.Now()
	}
	ret, _, err := b.vmClass.Call(b.vmMethod, vargs, &jvm.CallOptions{
		Limits:   b.vmLimits,
		Callback: cb,
	})
	if !start.IsZero() {
		st.addSpan(childSpan{id: st.newSpanID(), parent: parent, name: "child/vm_exec", start: start, dur: time.Since(start)})
	}
	if err != nil {
		return types.Value{}, err
	}
	switch ret.T {
	case jvm.TInt:
		return types.NewInt(ret.I), nil
	case jvm.TFloat:
		return types.NewFloat(ret.F), nil
	case jvm.TStr:
		return types.NewString(ret.S), nil
	default:
		return types.NewBytes(ret.B), nil
	}
}

// proxyCallback forwards callback requests over the pipe to the parent
// (each call is a full process-boundary round trip — the effect the
// paper's Figure 8 measures for IC++). parent lets a traced invoke
// record one child/callback_wait span per round trip; sid tags the
// request so the parent routes it to the right waiting stream.
type proxyCallback struct {
	st     *childState
	parent uint64
	sid    uint64
}

func (p *proxyCallback) roundTrip(op byte, handle, off, length int64) (r frame.Cursor, err error) {
	p.st.fault.fire("callback", p.st.conn)
	var start time.Time
	if p.st.traced {
		start = time.Now()
	}
	buf := append(binary.AppendUvarint(frame.Take(), p.sid), op)
	buf = binary.AppendVarint(buf, handle)
	buf = binary.AppendVarint(buf, off)
	buf = binary.AppendVarint(buf, length)
	err = p.st.conn.Send(msgCallback, buf)
	frame.Put(buf)
	if err == nil {
		r.Buf, err = p.recvCBResult()
	}
	if err != nil {
		return r, err
	}
	if !start.IsZero() {
		p.st.addSpan(childSpan{id: p.st.newSpanID(), parent: p.parent, name: "child/callback_wait", start: start, dur: time.Since(start)})
	}
	if ok := r.Byte(); ok == 0 {
		return r, fmt.Errorf("isolate: callback failed: %s", r.Str())
	}
	return r, nil
}

// recvCBResult reads frames until the callback reply arrives. The
// parent may interleave frames for other streams on the same pipe while
// this stream's invoke is blocked in a callback; those frames are
// copied and queued for the main loop, and pings are answered inline so
// the parent's health checks never stall behind a slow callback.
func (p *proxyCallback) recvCBResult() ([]byte, error) {
	for {
		typ, payload, err := p.st.conn.Recv()
		if err != nil {
			return nil, err
		}
		r := &frame.Cursor{Buf: payload}
		sid := r.Uvarint()
		if r.Err != nil {
			return nil, fmt.Errorf("isolate: bad stream tag on callback reply: %v", r.Err)
		}
		switch typ {
		case msgCBResult:
			if sid != p.sid {
				return nil, fmt.Errorf("isolate: callback reply for stream %d, want %d", sid, p.sid)
			}
			return r.Rest(), nil
		case msgPing:
			if err := p.st.conn.Send(msgPong, binary.AppendUvarint(nil, 0)); err != nil {
				return nil, err
			}
		default:
			// Another stream's traffic: park it for the main loop. The
			// payload must be copied out of the receive scratch.
			p.st.pending = append(p.st.pending, muxFrame{typ: typ, payload: bytes.Clone(payload)})
		}
	}
}

func (p *proxyCallback) Size(handle int64) (int64, error) {
	r, err := p.roundTrip(cbSize, handle, 0, 0)
	if err != nil {
		return 0, err
	}
	return r.Varint(), r.Err
}

func (p *proxyCallback) Get(handle, off int64) (byte, error) {
	r, err := p.roundTrip(cbGet, handle, off, 0)
	if err != nil {
		return 0, err
	}
	return byte(r.Varint()), r.Err
}

func (p *proxyCallback) Read(handle, off, length int64) ([]byte, error) {
	r, err := p.roundTrip(cbRead, handle, off, length)
	if err != nil {
		return nil, err
	}
	// The VM keeps the data: copy it out of the receive buffer.
	return append([]byte{}, r.Bytes()...), r.Err
}

func (p *proxyCallback) Touch(handle int64) error {
	r, err := p.roundTrip(cbTouch, handle, 0, 0)
	if err != nil {
		return err
	}
	r.Varint()
	return r.Err
}
