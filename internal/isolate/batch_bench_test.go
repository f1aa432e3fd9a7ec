package isolate

import (
	"fmt"
	"testing"

	"predator/internal/core"
	"predator/internal/jaguar"
	"predator/internal/types"
)

// Micro-benchmarks for the process-boundary crossing itself: one scalar
// Invoke per round trip versus one InvokeBatch carrying N rows. Each
// design runs in both lease shapes: a UDF's private executor with its
// sole stream (icpp, ijni), and two streams on one shared executor
// invoked in turn (shared/icpp, shared/ijni), as on a fleet slot. Run
// with -benchmem to see the frame-buffer reuse on the recv path.

const benchSumB = `
	func sumb(data bytes) int {
		var acc int = 0;
		for (var j int = 0; j < len(data); j = j + 1) { acc = acc + data[j]; }
		return acc;
	}`

// benchSetup is the stream setup of a design's benchmark UDF.
func benchSetup(b *testing.B, design string) StreamSetup {
	b.Helper()
	if design == "icpp" {
		return StreamSetup{Native: "sumbytes"}
	}
	classBytes, err := jaguar.CompileToBytes(benchSumB, "SumB")
	if err != nil {
		b.Fatal(err)
	}
	return StreamSetup{VM: &VMSetup{ClassBytes: classBytes, Method: "sumb"}}
}

// benchUDF builds a design's benchmark UDF on its private executor.
func benchUDF(b *testing.B, design string) core.BatchUDF {
	b.Helper()
	var u core.UDF
	if setup := benchSetup(b, design); setup.VM != nil {
		u = NewVMIsolated("sumb", []types.Kind{types.KindBytes}, types.KindInt, *setup.VM)
	} else {
		u = NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt)
	}
	b.Cleanup(func() { u.Close() })
	return u.(core.BatchUDF)
}

// benchShared opens two streams for a design's benchmark UDF on one
// shared executor.
func benchShared(b *testing.B, design string) [2]*MuxStream {
	b.Helper()
	m, err := StartMux(DefaultSupervision)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	setup := benchSetup(b, design)
	var ss [2]*MuxStream
	for i, tenant := range []string{"a", "b"} {
		if ss[i], _, err = m.OpenStream(tenant, "sumb", "tok", setup); err != nil {
			b.Fatal(err)
		}
	}
	return ss
}

// benchShapes runs one crossing kind in both lease shapes per design;
// check, if set, verifies the last crossing's output.
func benchShapes(b *testing.B, suffix string, private func(core.BatchUDF) error, shared func(*MuxStream) error, check func(*testing.B)) {
	for _, design := range []string{"icpp", "ijni"} {
		b.Run(design+suffix, func(b *testing.B) {
			u := benchUDF(b, design)
			benchLoop(b, func(int) error { return private(u) }, check)
		})
		b.Run("shared/"+design+suffix, func(b *testing.B) {
			ss := benchShared(b, design)
			benchLoop(b, func(i int) error { return shared(ss[i&1]) }, check)
		})
	}
}

// benchLoop times b.N crossings after warming up; cross(i) runs the
// i-th one.
func benchLoop(b *testing.B, cross func(i int) error, check func(*testing.B)) {
	for i := 0; i < 2; i++ {
		if err := cross(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cross(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if check != nil {
		check(b)
	}
}

func BenchmarkInvoke(b *testing.B) {
	args := []types.Value{types.NewBytes([]byte{1, 2, 3, 4})}
	benchShapes(b, "",
		func(u core.BatchUDF) error { _, err := u.Invoke(nil, args); return err },
		func(s *MuxStream) error { _, err := s.Invoke(nil, args); return err },
		nil)
}

func BenchmarkInvokeBatch(b *testing.B) {
	payload := types.NewBytes([]byte{1, 2, 3, 4})
	for _, n := range []int{8, 64, 256} {
		args := make([]types.Value, n)
		for i := range args {
			args[i] = payload
		}
		out := make([]core.BatchResult, n)
		benchShapes(b, fmt.Sprintf("/%d", n),
			func(u core.BatchUDF) error { return u.InvokeBatch(nil, 1, args, out) },
			func(s *MuxStream) error { return s.InvokeBatch(nil, 1, args, out) },
			func(b *testing.B) {
				for i := range out {
					if out[i].Err != nil {
						b.Fatal(out[i].Err)
					}
					if out[i].Value.Int != 10 {
						b.Fatalf("row %d = %d, want 10", i, out[i].Value.Int)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
	}
}
