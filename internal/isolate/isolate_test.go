package isolate

import (
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"predator/internal/core"
	"predator/internal/frame"
	"predator/internal/jaguar"
	"predator/internal/jvm"
	"predator/internal/types"
)

// testNatives is the native table shared by the parent test process
// and the re-executed executor children.
var testNatives = NativeTable{
	"sumbytes": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		var acc int64
		for _, b := range args[0].Bytes {
			acc += int64(b)
		}
		return types.NewInt(acc), nil
	},
	"fail": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		return types.Value{}, fmt.Errorf("deliberate failure")
	},
	// failodd fails for odd arguments — the per-row error case of a
	// batched invocation (even-argument siblings must still succeed).
	"failodd": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		if args[0].Int%2 != 0 {
			return types.Value{}, fmt.Errorf("odd input %d rejected", args[0].Int)
		}
		return types.NewInt(args[0].Int * 10), nil
	},
	"crash": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		os.Exit(3) // simulates the UDF taking down its process
		return types.Value{}, nil
	},
	"cbprobe": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		n, err := ctx.Callback.Size(args[0].Int)
		if err != nil {
			return types.Value{}, err
		}
		b, err := ctx.Callback.Get(args[0].Int, 1)
		if err != nil {
			return types.Value{}, err
		}
		data, err := ctx.Callback.Read(args[0].Int, 0, 2)
		if err != nil {
			return types.Value{}, err
		}
		if err := ctx.Callback.Touch(args[0].Int); err != nil {
			return types.Value{}, err
		}
		return types.NewInt(n*1000 + int64(b)*10 + int64(len(data))), nil
	},
}

func TestMain(m *testing.M) {
	MaybeRunExecutor(testNatives)
	os.Exit(m.Run())
}

type memCallback struct {
	data    []byte
	touches int
}

func (c *memCallback) Size(int64) (int64, error) { return int64(len(c.data)), nil }
func (c *memCallback) Get(_, off int64) (byte, error) {
	if off < 0 || off >= int64(len(c.data)) {
		return 0, fmt.Errorf("offset out of range")
	}
	return c.data[off], nil
}
func (c *memCallback) Read(_, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > int64(len(c.data)) {
		return nil, fmt.Errorf("range out of bounds")
	}
	out := make([]byte, n)
	copy(out, c.data[off:])
	return out, nil
}
func (c *memCallback) Touch(int64) error { c.touches++; return nil }

func TestIsolatedNativeUDF(t *testing.T) {
	u := NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt)
	defer u.Close()
	out, err := u.Invoke(nil, []types.Value{types.NewBytes([]byte{1, 2, 3, 4})})
	if err != nil {
		t.Fatal(err)
	}
	if out.Int != 10 {
		t.Errorf("sumbytes = %d, want 10", out.Int)
	}
	if u.Design() != core.DesignNativeIsolated {
		t.Error("wrong design")
	}
	// Repeated invocations reuse the executor.
	for i := 0; i < 5; i++ {
		out, err := u.Invoke(nil, []types.Value{types.NewBytes([]byte{byte(i)})})
		if err != nil || out.Int != int64(i) {
			t.Fatalf("iter %d: %v, %v", i, out, err)
		}
	}
}

func TestIsolatedUDFError(t *testing.T) {
	u := NewNativeIsolated("fail", nil, types.KindInt)
	defer u.Close()
	_, err := u.Invoke(nil, nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("err = %v", err)
	}
	// The executor survives a UDF error and keeps serving.
	_, err = u.Invoke(nil, nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("second call err = %v", err)
	}
}

func TestIsolatedUDFUnknownName(t *testing.T) {
	u := NewNativeIsolated("nosuch", nil, types.KindInt)
	defer u.Close()
	_, err := u.Invoke(nil, nil)
	if err == nil || !strings.Contains(err.Error(), "native table") {
		t.Errorf("err = %v", err)
	}
}

func TestIsolationSurvivesUDFCrash(t *testing.T) {
	// The paper's headline security property for Design 2: a UDF that
	// kills its own process must not take the server down.
	u := NewNativeIsolated("crash", nil, types.KindInt)
	defer u.Close()
	_, err := u.Invoke(nil, nil)
	if err == nil {
		t.Fatal("crashing UDF reported success")
	}
	// A healthy UDF still works afterwards (fresh executor spawned).
	sum := NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt)
	defer sum.Close()
	out, err := sum.Invoke(nil, []types.Value{types.NewBytes([]byte{5})})
	if err != nil || out.Int != 5 {
		t.Errorf("server-side work disrupted by UDF crash: %v, %v", out, err)
	}
	// And the crashed UDF's slot recovers too.
	fail := NewNativeIsolated("fail", nil, types.KindInt)
	defer fail.Close()
	if _, err := fail.Invoke(nil, nil); err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Errorf("recovery failed: %v", err)
	}
}

func TestIsolatedCallbacks(t *testing.T) {
	u := NewNativeIsolated("cbprobe", []types.Kind{types.KindInt}, types.KindInt)
	defer u.Close()
	cb := &memCallback{data: []byte{9, 8, 7}}
	out, err := u.Invoke(&core.Ctx{Callback: cb}, []types.Value{types.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	// size=3, get(1)=8, read len=2 -> 3*1000 + 8*10 + 2 = 3082
	if out.Int != 3082 {
		t.Errorf("cbprobe = %d, want 3082", out.Int)
	}
	if cb.touches != 1 {
		t.Errorf("touches = %d, want 1", cb.touches)
	}
}

func TestIsolatedCallbackWithoutHandler(t *testing.T) {
	u := NewNativeIsolated("cbprobe", []types.Kind{types.KindInt}, types.KindInt)
	defer u.Close()
	_, err := u.Invoke(nil, []types.Value{types.NewInt(1)})
	if err == nil || !strings.Contains(err.Error(), "no callback handler") {
		t.Errorf("err = %v", err)
	}
}

func TestVMIsolatedUDF(t *testing.T) {
	classBytes, err := jaguar.CompileToBytes(`
	func touchy(n int) int {
		var acc int = 0;
		for (var i int = 0; i < n; i = i + 1) {
			cb_touch(0);
			acc = acc + 1;
		}
		return acc;
	}`, "Touchy")
	if err != nil {
		t.Fatal(err)
	}
	u := NewVMIsolated("touchy", []types.Kind{types.KindInt}, types.KindInt, VMSetup{
		ClassBytes: classBytes, Method: "touchy",
	})
	defer u.Close()
	cb := &memCallback{data: []byte{1}}
	out, err := u.Invoke(&core.Ctx{Callback: cb}, []types.Value{types.NewInt(4)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Int != 4 || cb.touches != 4 {
		t.Errorf("touchy = %d, touches = %d; want 4, 4", out.Int, cb.touches)
	}
	if u.Design() != core.DesignVMIsolated {
		t.Error("wrong design")
	}
}

func TestVMIsolatedResourceLimits(t *testing.T) {
	classBytes, err := jaguar.CompileToBytes(`
	func spin(n int) int {
		var acc int = 0;
		for (var i int = 0; i < n; i = i + 1) { acc = acc + 1; }
		return acc;
	}`, "Spin")
	if err != nil {
		t.Fatal(err)
	}
	u := NewVMIsolated("spin", []types.Kind{types.KindInt}, types.KindInt, VMSetup{
		ClassBytes: classBytes, Method: "spin",
		Limits: jvm.Limits{Fuel: 100},
	})
	defer u.Close()
	if _, err := u.Invoke(nil, []types.Value{types.NewInt(1000000)}); err == nil ||
		!strings.Contains(err.Error(), "fuel") {
		t.Errorf("fuel limit not enforced across process boundary: %v", err)
	}
}

func TestVMIsolatedRejectsCorruptClass(t *testing.T) {
	u := NewVMIsolated("bad", nil, types.KindInt, VMSetup{
		ClassBytes: []byte("garbage"), Method: "m",
	})
	defer u.Close()
	if _, err := u.Invoke(nil, nil); err == nil {
		t.Error("corrupt class accepted by executor")
	}
}

// pipeExecutor runs the child loop in-process over synthetic pipes and
// returns the parent's end, with the child's ready frame (stream 0)
// already read.
func pipeExecutor(t *testing.T) *frame.Conn {
	t.Helper()
	parentR, childW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	childR, parentW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer childW.Close()
		RunExecutor(childR, childW, testNatives)
	}()
	t.Cleanup(func() { parentW.Close() })
	c := frame.NewConn(parentR, parentW)
	if typ, sid, _ := recvTagged(t, c); typ != msgReady || sid != 0 {
		t.Fatalf("ready: type %d on stream %d", typ, sid)
	}
	return c
}

// sendTagged writes one frame whose payload is the stream tag then body.
func sendTagged(t *testing.T, c *frame.Conn, typ byte, sid uint64, body []byte) {
	t.Helper()
	if err := c.Send(typ, append(binary.AppendUvarint(nil, sid), body...)); err != nil {
		t.Fatal(err)
	}
}

// recvTagged reads one frame and splits off its stream tag.
func recvTagged(t *testing.T, c *frame.Conn) (typ byte, sid uint64, body []byte) {
	t.Helper()
	typ, payload, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	r := frame.Cursor{Buf: payload}
	sid = r.Uvarint()
	if r.Err != nil {
		t.Fatalf("untagged frame %d from the child", typ)
	}
	return typ, sid, r.Rest()
}

// openNative is the body of a msgOpenStream binding a native UDF.
func openNative(name string) []byte {
	buf := []byte{streamNative}
	buf = frame.AppendString(buf, "tenant")
	buf = frame.AppendString(buf, name)
	buf = frame.AppendString(buf, "tok")
	return frame.AppendString(buf, name)
}

func TestRunExecutorOverSyntheticPipes(t *testing.T) {
	c := pipeExecutor(t)
	sendTagged(t, c, msgOpenStream, 1, openNative("sumbytes"))
	if typ, sid, _ := recvTagged(t, c); typ != msgReady || sid != 1 {
		t.Fatalf("open: type %d on stream %d", typ, sid)
	}
	payload := []byte{1} // argc=1 (uvarint)
	payload = types.EncodeValue(payload, types.NewBytes([]byte{3, 4}))
	sendTagged(t, c, msgInvoke, 1, payload)
	typ, sid, body := recvTagged(t, c)
	if typ != msgResult || sid != 1 {
		t.Fatalf("result: type %d on stream %d", typ, sid)
	}
	r := &frame.Cursor{Buf: body}
	v := r.Value()
	if r.Err != nil || v.Int != 7 {
		t.Errorf("value = %v, %v", v, r.Err)
	}
	sendTagged(t, c, msgShutdown, 0, nil)
}

func TestExecutorProtocolRobustness(t *testing.T) {
	// Drive the child loop with hostile frames: it must answer errors,
	// never crash, and keep serving.
	c := pipeExecutor(t)
	expectError := func(what string, wantSID uint64) {
		t.Helper()
		if typ, sid, _ := recvTagged(t, c); typ != msgError || sid != wantSID {
			t.Fatalf("%s reply: type %d on stream %d", what, typ, sid)
		}
	}
	// Unknown message type.
	sendTagged(t, c, 0x7F, 1, []byte{2, 3})
	expectError("unknown type", 1)
	// A frame without a stream tag.
	if err := c.Send(msgInvoke, nil); err != nil {
		t.Fatal(err)
	}
	expectError("untagged", 0)
	// Invoke before setup.
	sendTagged(t, c, msgInvoke, 1, []byte{0})
	expectError("invoke-before-setup", 1)
	// Truncated setup frame.
	sendTagged(t, c, msgOpenStream, 1, []byte{streamNative, 0xFF})
	expectError("truncated setup", 1)
	// Unknown stream kind.
	sendTagged(t, c, msgOpenStream, 1, append([]byte{0x7F}, openNative("sumbytes")[1:]...))
	expectError("unknown kind", 1)
	// The executor still works after all that.
	sendTagged(t, c, msgOpenStream, 1, openNative("sumbytes"))
	if typ, sid, _ := recvTagged(t, c); typ != msgReady || sid != 1 {
		t.Fatalf("recovery setup: type %d on stream %d", typ, sid)
	}
	sendTagged(t, c, msgPing, 0, nil)
	if typ, sid, _ := recvTagged(t, c); typ != msgPong || sid != 0 {
		t.Fatalf("ping: type %d on stream %d", typ, sid)
	}
	sendTagged(t, c, msgShutdown, 0, nil)
}

func TestConcurrentIsolatedInvocations(t *testing.T) {
	// One UDF handle serializes its executor; concurrent callers must
	// all succeed (the engine may evaluate multiple sessions at once).
	u := NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt)
	defer u.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				out, err := u.Invoke(nil, []types.Value{types.NewBytes([]byte{byte(g), byte(i)})})
				if err != nil {
					errs <- err
					return
				}
				if out.Int != int64(g)+int64(i) {
					errs <- fmt.Errorf("g=%d i=%d got %d", g, i, out.Int)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
