// Package isolate implements the isolated-process UDF designs (the
// paper's Design 2 "IC++" and Design 4): the UDF runs in a separate
// executor OS process, with arguments, results and callbacks crossing
// the process boundary on a framed pipe protocol.
//
// The paper's implementation used shared memory plus semaphores; pipes
// preserve the same cost structure — a per-invocation crossing whose
// cost is independent of UDF computation but grows with the bytes
// copied, and a double crossing for every callback (see DESIGN.md).
//
// The executor is the same program binary re-executed with
// ExecutorEnv set (call MaybeRunExecutor early in main or TestMain),
// so native UDF implementations are available on both sides.
//
// There is one transport, MuxExecutor, framed by package frame (shared
// with the client/server wire); every payload in both directions starts
// with a uvarint stream ID. Whatever outlives a received payload (a
// routed or queued frame, decoded arguments or results) is copied
// first. Stream 0 carries the ready, ping/pong and shutdown frames; each
// stream opened on an executor carries one UDF binding and at most one
// invocation at a time. A fleet slot carries the streams of many
// queries; a fleetless or quarantined UDF owns a private executor with a
// single stream.
package isolate

// ExecutorEnv marks a process as a UDF executor when set to "1".
const ExecutorEnv = "PREDATOR_UDF_EXECUTOR"

// Message types. Each payload starts with the uvarint stream ID; the
// comments list what follows it.
const (
	msgInvoke      byte = iota + 1 // argc, values
	msgResult                      // value
	msgError                       // string
	msgCallback                    // op, handle, off, len
	msgCBResult                    // ok flag, payload
	msgShutdown                    // none (stream 0)
	msgReady                       // none (stream 0 at start; an opened stream)
	msgPing                        // none (stream 0 health check)
	msgPong                        // none (stream 0 health check reply)
	msgInvokeBatch                 // n, arity, n*arity values (one crossing)
	msgResultBatch                 // n, per row: status byte + value | error string
	msgTraceCtx                    // trace id, parent span id (precedes a traced invoke)
	msgOpenStream                  // kind, tenant, name, token, setup
	msgCloseStream                 // none
)

// Stream-open kinds inside msgOpenStream frames.
const (
	streamWarm   byte = iota // bind a cached (tenant, UDF, token) warm entry; error if cold
	streamNative             // bind a native UDF (name follows)
	streamVM                 // bind a VM UDF (class/method/limits follow)
)

// Callback operation codes inside msgCallback frames.
const (
	cbSize byte = iota + 1
	cbGet
	cbRead
	cbTouch
)
