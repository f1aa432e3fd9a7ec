package isolate

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"predator/internal/frame"
)

// Deterministic fault injection for executor children, used to test
// every supervision recovery path. A fault spec names a protocol point
// and a failure mode:
//
//	point:mode[:arg]
//
// Points (where in the child's protocol life the fault fires):
//
//	ready    — before sending the initial msgReady handshake
//	setup    — on opening a native or VM stream, before binding it
//	invoke   — on receiving an invocation, before running the UDF
//	result   — after running the UDF, before sending its result
//	callback — before forwarding a UDF callback to the parent
//	shutdown — on receiving msgShutdown, before exiting
//	batchrow — before evaluating row <arg> of a batched invocation
//	           (e.g. "batchrow:crash:3"; crash and hang modes only)
//
// Modes:
//
//	crash        — exit the process immediately (os.Exit)
//	hang         — block forever (the parent's deadline must fire)
//	stall:<dur>  — sleep for a duration, then continue normally
//	corrupt      — write garbage bytes onto the pipe (babbling child),
//	               then continue normally
//
// The spec travels to children via the PREDATOR_FAULT environment
// variable, which executor processes inherit from the parent. Tests
// set it (t.Setenv or InjectFault) before starting an executor.
const FaultEnv = "PREDATOR_FAULT"

// Fault injection exit code, distinguishable from ordinary failures.
const faultExitCode = 42

// InjectFault arms fault injection for executors started after this
// call, returning a function that disarms it. Spec syntax is
// documented on FaultEnv; an empty spec disarms immediately.
func InjectFault(spec string) (clear func()) {
	if spec == "" {
		os.Unsetenv(FaultEnv)
	} else {
		os.Setenv(FaultEnv, spec)
	}
	return func() { os.Unsetenv(FaultEnv) }
}

// faultPlan is the parsed child-side view of a fault spec.
type faultPlan struct {
	point string
	mode  string
	arg   string
}

// parseFaultSpec parses the PREDATOR_FAULT value; nil when unset or
// malformed (a bad spec in production must never break an executor).
func parseFaultSpec(spec string) *faultPlan {
	if spec == "" {
		return nil
	}
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) < 2 {
		return nil
	}
	p := &faultPlan{point: parts[0], mode: parts[1]}
	if len(parts) == 3 {
		p.arg = parts[2]
	}
	return p
}

// fire triggers the configured fault if it applies to this point.
// It returns normally for non-matching points and for the stall and
// corrupt modes (which perturb, then proceed).
func (p *faultPlan) fire(point string, c *frame.Conn) {
	if p == nil || p.point != point {
		return
	}
	switch p.mode {
	case "crash":
		fmt.Fprintf(os.Stderr, "udf-executor: injected crash at %s\n", point)
		os.Exit(faultExitCode)
	case "hang":
		// Block forever; the supervisor must SIGKILL us. A sleep loop
		// rather than select{} so the runtime's deadlock detector does
		// not turn the hang into an exit.
		for {
			time.Sleep(time.Hour)
		}
	case "stall":
		if d, err := time.ParseDuration(p.arg); err == nil {
			time.Sleep(d)
		}
	case "corrupt":
		if c != nil {
			// A frame header announcing an absurd length: the parent
			// must classify this as a protocol fault and kill us.
			c.Raw([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xEE})
		}
	}
}

// fireBatchRow triggers the configured fault when it targets a specific
// row of a batched invocation (point "batchrow", arg = the row index;
// e.g. "batchrow:crash:3"). A crash sends the invoking stream a
// dying-gasp msgError naming the in-flight row — so the parent's error
// can report which row was being evaluated — then exits with the fault
// code; the supervisor still observes the process death and restarts
// as usual.
func (p *faultPlan) fireBatchRow(row int, c *frame.Conn, sid uint64) {
	if p == nil || p.point != "batchrow" || p.arg != strconv.Itoa(row) {
		return
	}
	switch p.mode {
	case "crash":
		msg := fmt.Sprintf("injected crash at batch row %d", row)
		_ = c.Send(msgError, frame.AppendString(binary.AppendUvarint(nil, sid), msg))
		fmt.Fprintf(os.Stderr, "udf-executor: injected crash at batch row %d\n", row)
		os.Exit(faultExitCode)
	case "hang":
		for {
			time.Sleep(time.Hour)
		}
	}
}
