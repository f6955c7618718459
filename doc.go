// Package repro reproduces "Towards a Better Expressiveness of the Speedup
// Metric in MPI Context" (Besnard, Malony, Shende, Pérache, Carribault,
// Jaeger — ICPP Workshops 2017) as a Go library: an in-process MPI runtime
// with virtual-time machine models, the MPI_Section abstraction with its
// PMPI-style tool layer, the partial-speedup-bounding analysis, and the
// paper's two instrumented benchmarks (image convolution and a LULESH
// proxy) with drivers regenerating every table and figure of §5.
//
// The MPI_Section tool layer is open: any mpi.Tool attached through
// mpi.Config.Tools observes section, message and collective events with
// virtual timestamps, chained PMPI-style. internal/export is the worked
// example — a streaming exporter producing Perfetto-loadable Chrome
// trace_event JSON, OTLP-style spans (carrying the 32-byte tool-data
// payload as attributes) and live Prometheus metrics, served by
// cmd/secmon's HTTP monitor. See "Attaching your own tool" in README.md.
//
// Attaching your own tool, the one rule that decides what it costs: hooks
// run inline on the rank's coroutine, so whatever a hook waits for, the
// rank waits for — and a section event must never wait for another rank.
// The hooks of one world run one at a time, in each rank's program order,
// and a tool instance serves one live world, so build the chain per Run
// and keep no lock against your own hooks. A tool needs a lock only for a
// reader on another goroutine: export's live /metrics scrape, telemetry's
// Snapshot, trace.Buffer's views of a recording in progress, verify's
// Report read by a serve handler. Each tool owns a 32-byte payload per
// section frame (Fig. 2): keep enter state there, not in a stack of your
// own. internal/prof is the pattern — enter state in its payload, a
// 16-byte cursor and plain cells per rank, no lock or atomic on the event
// path — and its package comment says what each event writes.
//
// Buffer ownership, for tool authors and workloads: message payloads live
// in a size-classed pool. mpi.Comm.Recv (and the Wait on an Irecv request)
// transfers ownership of the returned []byte to the caller — pass it to
// mpi.Release when done to keep the steady state allocation-free, or keep
// it indefinitely (a kept buffer is merely never recycled). Tool hooks
// (MessageSent/MessageRecv) receive metadata only, never the payload, so
// tools are unaffected. Buffers obtained any other way (SendrecvFloat64s
// results, Allreduce results) are owned by the caller outright and must
// NOT be passed to mpi.Release. Scaled runs may ship "ghost" messages
// that carry a byte count but no payload bytes; Recv materializes a
// zeroed buffer for them, so receivers cannot observe the difference.
//
// See README.md for the tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results. The root package holds only
// the benchmark harness (bench_test.go); the implementation lives under
// internal/.
package repro
