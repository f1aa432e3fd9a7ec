package expr

import (
	"os"
	"strings"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/isolate"
	"predator/internal/jaguar"
	"predator/internal/jvm"
	"predator/internal/types"
)

// TestMain lets this test binary serve as the isolated executor that
// BenchmarkInlineSpeedup spawns.
func TestMain(m *testing.M) {
	isolate.MaybeRunExecutor(nil)
	os.Exit(m.Run())
}

// registerJaguar compiles a Jaguar source and registers it as a
// Design 3 (VM-integrated) UDF; translatable bodies come back from the
// binder as inlinedCall nodes.
func registerJaguar(t testing.TB, reg *core.Registry, name, src string, args []types.Kind, ret types.Kind) {
	t.Helper()
	c, err := jaguar.Compile(src, "udf_"+name)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	lc, err := jvm.New(jvm.Options{}).NewLoader("t").LoadClass(c)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	u, err := core.NewVM(core.VMUDFConfig{Name: name, Class: lc, Method: name, Args: args, Return: ret})
	if err != nil {
		t.Fatalf("NewVM %s: %v", name, err)
	}
	if err := reg.Register(u); err != nil {
		t.Fatal(err)
	}
}

// TestInlinedUDFEvalZeroAlloc extends the zero-alloc pin to the Froid
// path: a translated Jaguar body evaluated in the expression tree must
// not allocate per row — that is the whole point of inlining.
func TestInlinedUDFEvalZeroAlloc(t *testing.T) {
	reg := core.NewRegistry()
	registerJaguar(t, reg, "mix",
		`func mix(a int, b int) int { if (a > b) { return a * 3 - b; } return b * 3 - a; }`,
		[]types.Kind{types.KindInt, types.KindInt}, types.KindInt)
	bound := benchBind(t, `mix(i, i)`, reg)
	if _, ok := bound.(*inlinedCall); !ok {
		t.Fatalf("bound to %T, want *inlinedCall", bound)
	}
	row := testRow()

	for _, tc := range []struct {
		name string
		ec   *Ctx
	}{
		{"nil-ctx", nil},
		{"untraced-ctx", &Ctx{}},
	} {
		if _, err := bound.Eval(tc.ec, row); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			v, err := bound.Eval(tc.ec, row)
			if err != nil {
				t.Fatal(err)
			}
			if v.Int != 20 {
				t.Fatalf("got %d, want 20", v.Int)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: inlinedCall.Eval allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}

// TestInlineBindDecision pins which node the binder produces and what
// EXPLAIN will print for each case: translated bodies inline, bodies
// with natives fall back with the reason, and NoInline forces the
// dispatch path with reason "disabled".
func TestInlineBindDecision(t *testing.T) {
	reg := core.NewRegistry()
	registerJaguar(t, reg, "tri",
		`func tri(a int) int { return a * (a + 1) / 2; }`,
		[]types.Kind{types.KindInt}, types.KindInt)
	registerJaguar(t, reg, "peek",
		`func peek(a int) int { return cb_size(a); }`,
		[]types.Kind{types.KindInt}, types.KindInt)

	inlined := bind(t, `tri(i)`, reg)
	if _, ok := inlined.(*inlinedCall); !ok {
		t.Fatalf("tri bound to %T, want *inlinedCall", inlined)
	}
	if got := inlined.String(); !strings.Contains(got, "tri[inlined]") {
		t.Fatalf("inlined String = %q, want tri[inlined](...)", got)
	}

	fallback := bind(t, `peek(i)`, reg)
	if _, ok := fallback.(*udfCall); !ok {
		t.Fatalf("peek bound to %T, want *udfCall", fallback)
	}
	if got := fallback.String(); !strings.Contains(got, "peek[JNI !native-call:cb.size]") {
		t.Fatalf("fallback String = %q, want the bail-out reason", got)
	}

	u, _ := reg.Lookup("tri")
	off, err := NewUDFCallNoInline(u, []Bound{&Col{Index: 0, K: types.KindInt, Name: "i"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := off.String(); !strings.Contains(got, "tri[JNI !disabled]") {
		t.Fatalf("NoInline String = %q, want tri[JNI !disabled](...)", got)
	}
}

// TestInlinedMatchesVMDispatch is the expression-level differential:
// the same registered UDF evaluated inlined and through the VM must
// agree row for row, NULLs and traps included.
func TestInlinedMatchesVMDispatch(t *testing.T) {
	reg := core.NewRegistry()
	registerJaguar(t, reg, "ratio",
		`func ratio(a int, b int) int { return (a * a + 7) / b; }`,
		[]types.Kind{types.KindInt, types.KindInt}, types.KindInt)
	u, _ := reg.Lookup("ratio")
	args := func() []Bound {
		return []Bound{
			&Col{Index: 0, K: types.KindInt, Name: "i"},
			&Col{Index: 1, K: types.KindInt, Name: "j"},
		}
	}
	inl, err := NewUDFCall(u, args())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inl.(*inlinedCall); !ok {
		t.Fatalf("bound to %T, want *inlinedCall", inl)
	}
	vm, err := NewUDFCallNoInline(u, args())
	if err != nil {
		t.Fatal(err)
	}
	rows := []types.Row{
		{types.NewInt(10), types.NewInt(3)},
		{types.NewInt(-4), types.NewInt(5)},
		{types.NewInt(1), types.NewInt(0)}, // division by zero trap
		{types.Null(), types.NewInt(2)},    // strict NULL, arg 1
		{types.NewInt(2), types.Null()},    // strict NULL, arg 2
		{types.NewInt(1 << 31), types.NewInt(1)},
	}
	for _, row := range rows {
		iv, ierr := inl.Eval(nil, row)
		vv, verr := vm.Eval(nil, row)
		if (ierr == nil) != (verr == nil) {
			t.Fatalf("row %v: inlined err %v, vm err %v", row, ierr, verr)
		}
		if ierr != nil {
			// Different wrapping prefixes, same underlying trap.
			var it, vt *jvm.Trap
			if !asTrap(ierr, &it) || !asTrap(verr, &vt) || *it != *vt {
				t.Fatalf("row %v: trap mismatch: %v vs %v", row, ierr, verr)
			}
			continue
		}
		if iv.IsNull() != vv.IsNull() || (!iv.IsNull() && iv.Int != vv.Int) {
			t.Fatalf("row %v: inlined %v, vm %v", row, iv, vv)
		}
	}
}

func asTrap(err error, out **jvm.Trap) bool {
	for err != nil {
		if tr, ok := err.(*jvm.Trap); ok {
			*out = tr
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// BenchmarkInlineSpeedup is the inlining gate: the same small Jaguar
// UDF, evaluated inlined in the expression tree, must run at least 5x
// the rows/s of per-row VM dispatch and no slower than an isolated
// executor fed 64-row batches (which keeps its crossings because
// inlining is disabled on it). The three arms take turns in short
// slices and each keeps its best slice, so a burst of host noise
// cannot land on one arm only. CI runs it once:
//
//	go test -run '^$' -bench BenchmarkInlineSpeedup -benchtime 1x ./internal/expr
func BenchmarkInlineSpeedup(b *testing.B) {
	const (
		src       = `func gate(v int) int { return (v * 37 + 11) % 101; }`
		slice     = 50 * time.Millisecond
		slices    = 6
		batchRows = 64
	)
	want := func(v int64) int64 { return (v*37 + 11) % 101 }
	intKinds := []types.Kind{types.KindInt}
	classBytes, err := jaguar.CompileToBytes(src, "Inline")
	if err != nil {
		b.Fatal(err)
	}
	class, err := jvm.DecodeClass(classBytes)
	if err != nil {
		b.Fatal(err)
	}
	lc, err := jvm.New(jvm.Options{}).NewLoader("bench-inline").LoadClass(class)
	if err != nil {
		b.Fatal(err)
	}
	vmUDF, err := core.NewVM(core.VMUDFConfig{Name: "gate", Class: lc, Method: "gate", Args: intKinds, Return: types.KindInt})
	if err != nil {
		b.Fatal(err)
	}
	inlined, err := NewUDFCall(vmUDF, []Bound{&Col{Index: 0, K: types.KindInt, Name: "v"}})
	if err != nil {
		b.Fatal(err)
	}
	vmCall, err := NewUDFCallNoInline(vmUDF, []Bound{&Col{Index: 0, K: types.KindInt, Name: "v"}})
	if err != nil {
		b.Fatal(err)
	}
	iso := isolate.WithInlineDisabled(isolate.NewVMIsolated("gate_iso", intKinds, types.KindInt,
		isolate.VMSetup{ClassBytes: classBytes, Method: "gate"})).(core.BatchUDF)
	defer iso.Close()

	// scalar drives a per-row Bound for one slice and returns rows/s.
	scalar := func(bound Bound) float64 {
		row := types.Row{types.NewInt(0)}
		var n int64
		start := time.Now()
		for time.Since(start) < slice {
			// An inner block amortizes the clock read.
			for i := 0; i < 1024; i++ {
				v := n & 1023
				row[0] = types.NewInt(v)
				out, err := bound.Eval(nil, row)
				if err != nil {
					b.Fatal(err)
				}
				if out.Int != want(v) {
					b.Fatalf("gate(%d) = %d, want %d", v, out.Int, want(v))
				}
				n++
			}
		}
		return float64(n) / time.Since(start).Seconds()
	}
	// batched drives the isolated UDF in batchRows-row crossings for
	// one slice and returns rows/s.
	batched := func() float64 {
		args := make([]types.Value, batchRows)
		out := make([]core.BatchResult, batchRows)
		var n int64
		start := time.Now()
		for time.Since(start) < slice {
			for i := range args {
				args[i] = types.NewInt((n + int64(i)) & 1023)
			}
			if err := iso.InvokeBatch(nil, 1, args, out); err != nil {
				b.Fatal(err)
			}
			for i, r := range out {
				if r.Err != nil || r.Value.Int != want(args[i].Int) {
					b.Fatalf("batched gate(%d) = %v, %v", args[i].Int, r.Value, r.Err)
				}
			}
			n += batchRows
		}
		return float64(n) / time.Since(start).Seconds()
	}

	for i := 0; i < b.N; i++ {
		var in, vm, isoRate float64
		for j := 0; j < slices; j++ {
			in = max(in, scalar(inlined))
			vm = max(vm, scalar(vmCall))
			isoRate = max(isoRate, batched())
		}
		b.ReportMetric(in/vm, "x-over-vm")
		b.ReportMetric(in/isoRate, "x-over-isolated")
		if in/vm < 5 {
			b.Fatalf("inlined %.0f rows/s is %.2fx the VM's %.0f, want >= 5x", in, in/vm, vm)
		}
		if in < isoRate {
			b.Fatalf("inlined %.0f rows/s is slower than isolated-batched %.0f", in, isoRate)
		}
	}
}
