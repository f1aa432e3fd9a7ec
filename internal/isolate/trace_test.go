package isolate

import (
	"os"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/frame"
	"predator/internal/obs"
	"predator/internal/types"
)

func TestChildSpanWireRoundTrip(t *testing.T) {
	now := time.Unix(1700000000, 123456789)
	in := []childSpan{
		{id: 1, parent: 0, name: "child/invoke", start: now, dur: 5 * time.Millisecond},
		{id: 2, parent: 1, name: "child/vm_exec", start: now.Add(time.Millisecond), dur: time.Millisecond},
	}
	buf := appendChildSpans(nil, in)
	out := decodeChildSpans(&frame.Cursor{Buf: buf})
	if len(out) != len(in) {
		t.Fatalf("decoded %d spans, want %d", len(out), len(in))
	}
	for i, rec := range out {
		if rec.ID != int64(in[i].id) || rec.Parent != int64(in[i].parent) || rec.Name != in[i].name {
			t.Errorf("span %d: got %+v", i, rec)
		}
		if !rec.Start.Equal(in[i].start) || rec.Dur != in[i].dur {
			t.Errorf("span %d timing: start %v dur %v", i, rec.Start, rec.Dur)
		}
	}
}

func TestChildSpanDecodeRejectsBabble(t *testing.T) {
	// A count beyond the cap must fail the frame, not allocate for it.
	buf := appendChildSpans(nil, nil)
	buf[0] = 0xFF // corrupt the count into a large varint prefix
	buf = append(buf, 0xFF, 0xFF, 0x7F)
	r := &frame.Cursor{Buf: buf}
	if got := decodeChildSpans(r); got != nil || r.Err == nil {
		t.Fatalf("oversized span count accepted: %v (err=%v)", got, r.Err)
	}
	// Truncated payload mid-span also fails cleanly.
	trunc := appendChildSpans(nil, []childSpan{{id: 1, name: "child/invoke"}})
	r = &frame.Cursor{Buf: trunc[:len(trunc)-2]}
	if got := decodeChildSpans(r); got != nil || r.Err == nil {
		t.Fatalf("truncated span tail accepted: %v (err=%v)", got, r.Err)
	}
}

// TestInvokeShipsChildSpans drives a real executor process end to end:
// a detailed trace on the UDF context must come back with spans the
// child recorded, attributed to the child's (non-zero, non-parent) PID.
func TestInvokeShipsChildSpans(t *testing.T) {
	u := NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt)
	defer u.Close()
	tr := obs.NewTrace()
	tr.EnableDetail()
	ctx := &core.Ctx{Trace: tr}
	v, err := u.Invoke(ctx, []types.Value{types.NewBytes([]byte{20, 22})})
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 42 {
		t.Fatalf("got %d", v.Int)
	}
	names := map[string]int{}
	childPID := 0
	for _, r := range tr.Spans() {
		names[r.Name]++
		if r.PID != 0 {
			childPID = r.PID
		}
	}
	if names["child/invoke"] == 0 {
		t.Fatalf("no child/invoke span shipped; spans: %v", names)
	}
	if names["child/setup"] == 0 {
		t.Fatalf("no child/setup span shipped; spans: %v", names)
	}
	if childPID == 0 || childPID == os.Getpid() {
		t.Fatalf("child spans not attributed to the executor process: pid=%d", childPID)
	}

	// An untraced context must ship nothing new.
	before := len(tr.Spans())
	if _, err := u.Invoke(&core.Ctx{}, []types.Value{types.NewBytes([]byte{1})}); err != nil {
		t.Fatal(err)
	}
	if after := len(tr.Spans()); after != before {
		t.Fatalf("untraced invoke grew the trace: %d -> %d", before, after)
	}
}
