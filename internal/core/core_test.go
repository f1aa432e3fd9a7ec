package core

import (
	"fmt"
	"strings"
	"testing"

	"predator/internal/jaguar"
	"predator/internal/jvm"
	"predator/internal/types"
)

func sumBytesNative(ctx *Ctx, args []types.Value) (types.Value, error) {
	var acc int64
	for _, b := range args[0].Bytes {
		acc += int64(b)
	}
	return types.NewInt(acc), nil
}

func TestDesignLabels(t *testing.T) {
	cases := map[Design]string{
		DesignNativeIntegrated: "C++",
		DesignNativeIsolated:   "IC++",
		DesignVMIntegrated:     "JNI",
		DesignVMIsolated:       "IJNI",
		DesignSFINative:        "BC++",
	}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("Design(%d).String() = %q, want %q", d, d, want)
		}
	}
	if !DesignNativeIntegrated.Integrated() || DesignNativeIsolated.Integrated() {
		t.Error("Integrated() wrong")
	}
	if DesignNativeIntegrated.Safe() || !DesignVMIntegrated.Safe() || !DesignSFINative.Safe() {
		t.Error("Safe() wrong")
	}
}

func TestNativeUDFInvoke(t *testing.T) {
	u := NewNative("sumbytes", []types.Kind{types.KindBytes}, types.KindInt, sumBytesNative)
	out, err := u.Invoke(nil, []types.Value{types.NewBytes([]byte{1, 2, 3})})
	if err != nil || out.Int != 6 {
		t.Errorf("Invoke = %v, %v", out, err)
	}
	if u.Design() != DesignNativeIntegrated {
		t.Error("wrong design")
	}
	// Arg validation.
	if _, err := u.Invoke(nil, nil); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := u.Invoke(nil, []types.Value{types.NewInt(1)}); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestNativeUDFErrorWrapped(t *testing.T) {
	u := NewNative("boom", nil, types.KindInt, func(ctx *Ctx, args []types.Value) (types.Value, error) {
		return types.Value{}, fmt.Errorf("kaboom")
	})
	_, err := u.Invoke(nil, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v", err)
	}
}

func TestSFICheckedBytes(t *testing.T) {
	data := []byte{10, 20, 30}
	cb := NewCheckedBytes(data)
	if cb.Len() != 3 {
		t.Errorf("Len = %d", cb.Len())
	}
	v, err := cb.Get(1)
	if err != nil || v != 20 {
		t.Errorf("Get(1) = %d, %v", v, err)
	}
	if _, err := cb.Get(3); err == nil {
		t.Error("out-of-range read allowed")
	}
	if _, err := cb.Get(-1); err == nil {
		t.Error("negative read allowed")
	}
	if err := cb.Set(0, 99); err != nil || data[0] != 99 {
		t.Errorf("Set: %v, data[0]=%d", err, data[0])
	}
	if err := cb.Set(5, 1); err == nil {
		t.Error("out-of-range write allowed")
	}
}

func TestSFIUDFChecksReturnKind(t *testing.T) {
	u := NewSFINative("bad", nil, types.KindInt, func(ctx *Ctx, args []types.Value) (types.Value, error) {
		return types.NewString("oops"), nil
	})
	if _, err := u.Invoke(nil, nil); err == nil {
		t.Error("SFI wrapper accepted wrong return kind")
	}
	if u.Design() != DesignSFINative {
		t.Error("wrong design")
	}
}

func loadJaguar(t *testing.T, src, class string) *jvm.LoadedClass {
	t.Helper()
	cls, err := jaguar.Compile(src, class)
	if err != nil {
		t.Fatal(err)
	}
	vm := jvm.New(jvm.Options{Security: jvm.DefaultPolicy()})
	lc, err := vm.NewLoader("core-test").LoadClass(cls)
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

func TestVMUDFInvoke(t *testing.T) {
	lc := loadJaguar(t, `
	func triple(x int) int { return 3 * x; }
	func ratio(a int, b int) float {
		if (b == 0) { return 0.0; }
		return float(a) / float(b);
	}`, "Math")
	u, err := NewVM(VMUDFConfig{
		Name: "triple", Class: lc,
		Args: []types.Kind{types.KindInt}, Return: types.KindInt,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := u.Invoke(nil, []types.Value{types.NewInt(14)})
	if err != nil || out.Int != 42 {
		t.Errorf("triple = %v, %v", out, err)
	}
	if u.Design() != DesignVMIntegrated {
		t.Error("wrong design")
	}

	r, err := NewVM(VMUDFConfig{
		Name: "ratio", Class: lc,
		Args: []types.Kind{types.KindInt, types.KindInt}, Return: types.KindFloat,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err = r.Invoke(nil, []types.Value{types.NewInt(1), types.NewInt(4)})
	if err != nil || out.Float != 0.25 {
		t.Errorf("ratio = %v, %v", out, err)
	}
}

func TestVMUDFSignatureValidation(t *testing.T) {
	lc := loadJaguar(t, `func f(x int) int { return x; }`, "Sig")
	cases := []VMUDFConfig{
		{Name: "g", Class: lc, Method: "nosuch", Args: []types.Kind{types.KindInt}, Return: types.KindInt},
		{Name: "f", Class: lc, Args: nil, Return: types.KindInt},                           // arity
		{Name: "f", Class: lc, Args: []types.Kind{types.KindBytes}, Return: types.KindInt}, // arg type
		{Name: "f", Class: lc, Args: []types.Kind{types.KindInt}, Return: types.KindBytes}, // return type
	}
	for i, cfg := range cases {
		if _, err := NewVM(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Bool maps to VM int, so a bool SQL arg binds an int method param.
	u, err := NewVM(VMUDFConfig{Name: "f", Class: lc, Args: []types.Kind{types.KindBool}, Return: types.KindBool})
	if err != nil {
		t.Fatal(err)
	}
	out, err := u.Invoke(nil, []types.Value{types.NewBool(true)})
	if err != nil || !out.Bool {
		t.Errorf("bool boundary: %v, %v", out, err)
	}
}

func TestVMUDFResourceLimits(t *testing.T) {
	lc := loadJaguar(t, `
	func spin(n int) int {
		var acc int = 0;
		for (var i int = 0; i < n; i = i + 1) { acc = acc + 1; }
		return acc;
	}`, "Spin")
	u, err := NewVM(VMUDFConfig{
		Name: "spin", Class: lc,
		Args: []types.Kind{types.KindInt}, Return: types.KindInt,
		Limits: jvm.Limits{Fuel: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Invoke(nil, []types.Value{types.NewInt(1000000)}); err == nil {
		t.Error("runaway UDF not stopped by fuel limit")
	}
	out, err := u.Invoke(nil, []types.Value{types.NewInt(10)})
	if err != nil || out.Int != 10 {
		t.Errorf("small run: %v, %v", out, err)
	}
}

type fakeCallback struct{ sizes int }

func (f *fakeCallback) Size(int64) (int64, error)                { f.sizes++; return 77, nil }
func (f *fakeCallback) Get(int64, int64) (byte, error)           { return 0, nil }
func (f *fakeCallback) Read(int64, int64, int64) ([]byte, error) { return nil, nil }
func (f *fakeCallback) Touch(int64) error                        { return nil }

func TestVMUDFCallback(t *testing.T) {
	lc := loadJaguar(t, `func sz(h int) int { return cb_size(h); }`, "CB")
	u, err := NewVM(VMUDFConfig{Name: "sz", Class: lc, Args: []types.Kind{types.KindInt}, Return: types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	cb := &fakeCallback{}
	out, err := u.Invoke(&Ctx{Callback: cb}, []types.Value{types.NewInt(5)})
	if err != nil || out.Int != 77 || cb.sizes != 1 {
		t.Errorf("callback: %v, %v, sizes=%d", out, err, cb.sizes)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	u1 := NewNative("f", nil, types.KindInt, func(*Ctx, []types.Value) (types.Value, error) {
		return types.NewInt(1), nil
	})
	if err := r.Register(u1); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Lookup("F") // case-insensitive
	if !ok || got != u1 {
		t.Error("lookup failed")
	}
	u2 := NewNative("F", nil, types.KindInt, func(*Ctx, []types.Value) (types.Value, error) {
		return types.NewInt(2), nil
	})
	if err := r.Register(u2); err != nil {
		t.Fatal(err)
	}
	got, _ = r.Lookup("f")
	out, _ := got.Invoke(nil, nil)
	if out.Int != 2 {
		t.Error("replacement not effective")
	}
	if len(r.List()) != 1 {
		t.Errorf("List len = %d", len(r.List()))
	}
	if err := r.Drop("f"); err != nil {
		t.Fatal(err)
	}
	if err := r.Drop("f"); err == nil {
		t.Error("double drop accepted")
	}
	if err := r.Register(NewNative("", nil, types.KindInt, nil)); err == nil {
		t.Error("unnamed UDF accepted")
	}
}

func TestCheckArgsAllowsNull(t *testing.T) {
	u := NewNative("f", []types.Kind{types.KindInt}, types.KindInt, nil)
	if err := CheckArgs(u, []types.Value{types.Null()}); err != nil {
		t.Errorf("NULL arg rejected: %v", err)
	}
}

// A fault names its class and operation, not the isolate layer: a
// disk-full statement or an overload shed has nothing to do with
// executor processes.
func TestFaultMessageNamesNoLayer(t *testing.T) {
	for _, f := range []*Fault{
		Faultf(FaultDiskFull, "statement", "no space left on device"),
		Faultf(FaultOverload, "admit", "queue full"),
	} {
		msg := f.Error()
		if strings.Contains(msg, "isolate") || !strings.HasPrefix(msg, f.Class.String()+" fault during "+f.Op) {
			t.Errorf("fault message %q", msg)
		}
	}
}

// Every successful crossing classifies a nil error, so that must not
// allocate.
func TestFaultClassOfNilDoesNotAllocate(t *testing.T) {
	var err error
	if c := FaultClassOf(err); c != FaultNone {
		t.Fatalf("FaultClassOf(nil) = %v", c)
	}
	if n := testing.AllocsPerRun(100, func() { FaultClassOf(err) }); n != 0 {
		t.Errorf("FaultClassOf(nil): %v allocs, want 0", n)
	}
}
