package waitstate

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// --- hand-crafted ground-truth traces --------------------------------------

func enter(rank int, label string, t float64) trace.Event {
	return trace.Event{T: t, Rank: rank, Kind: trace.KindSectionEnter, Label: label}
}

func leave(rank int, label string, t float64) trace.Event {
	return trace.Event{T: t, Rank: rank, Kind: trace.KindSectionLeave, Label: label}
}

func recv(rank, peer, tag int, t, sendT, postT, arrT float64) trace.Event {
	return trace.Event{
		T: t, Rank: rank, Kind: trace.KindRecv, Peer: peer, Tag: tag, Bytes: 100,
		SendT: sendT, PostT: postT, ArrT: arrT,
	}
}

func sectionByName(t *testing.T, a *Analysis, name string) SectionDiagnosis {
	t.Helper()
	for _, d := range a.Sections {
		if d.Section == name {
			return d
		}
	}
	t.Fatalf("section %q missing from analysis: %+v", name, a.Sections)
	return SectionDiagnosis{}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestLateSenderGroundTruth: rank 0 computes in WORK until t=5 and only
// then sends; rank 1 posted the receive at t=1 inside HALO and blocks until
// the payload arrives at t=6. Ground truth: HALO wait_in = 5 of which 4 is
// late-sender and 1 transfer; WORK is charged 4 of wait_out.
func TestLateSenderGroundTruth(t *testing.T) {
	events := []trace.Event{
		enter(0, "MPI_MAIN", 0), enter(0, "WORK", 0),
		{T: 5, Rank: 0, Kind: trace.KindSend, Peer: 1, Tag: 0, Bytes: 100},
		leave(0, "WORK", 5), leave(0, "MPI_MAIN", 5),
		enter(1, "MPI_MAIN", 0), enter(1, "HALO", 1),
		recv(1, 0, 0, 6, 5, 1, 6),
		leave(1, "HALO", 6), leave(1, "MPI_MAIN", 6),
	}
	a, err := Analyze(events, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Ranks != 2 || !approx(a.Wall, 6) {
		t.Fatalf("ranks=%d wall=%g, want 2/6", a.Ranks, a.Wall)
	}
	halo := sectionByName(t, a, "HALO")
	if !approx(halo.WaitIn, 5) || !approx(halo.LateSender, 4) || !approx(halo.Transfer, 1) {
		t.Errorf("HALO wait split = in %g / late %g / transfer %g, want 5/4/1",
			halo.WaitIn, halo.LateSender, halo.Transfer)
	}
	if halo.DominantCause != CauseLateSender {
		t.Errorf("HALO dominant cause = %q, want %q", halo.DominantCause, CauseLateSender)
	}
	if halo.LateRecvN != 0 {
		t.Errorf("HALO late receivers = %d, want 0", halo.LateRecvN)
	}
	work := sectionByName(t, a, "WORK")
	if !approx(work.WaitOut, 4) {
		t.Errorf("WORK wait_out = %g, want 4 (the lateness it caused)", work.WaitOut)
	}
	if work.DominantCause != CauseCompute {
		t.Errorf("WORK dominant cause = %q, want compute", work.DominantCause)
	}
	if b := a.Binding(); b == nil || b.Section != "HALO" {
		t.Errorf("binding = %+v, want HALO", b)
	}
}

// TestLateReceiverGroundTruth: the payload arrives at t=1 but rank 1 only
// posts the receive at t=3 — no blocked time, but one late-receiver with
// two seconds of mailbox sit time.
func TestLateReceiverGroundTruth(t *testing.T) {
	events := []trace.Event{
		enter(0, "MPI_MAIN", 0),
		{T: 0, Rank: 0, Kind: trace.KindSend, Peer: 1, Tag: 0, Bytes: 100},
		leave(0, "MPI_MAIN", 4),
		enter(1, "MPI_MAIN", 0), enter(1, "HALO", 3),
		recv(1, 0, 0, 3, 0, 3, 1),
		leave(1, "HALO", 3), leave(1, "MPI_MAIN", 4),
	}
	a, err := Analyze(events, Options{})
	if err != nil {
		t.Fatal(err)
	}
	halo := sectionByName(t, a, "HALO")
	if !approx(halo.WaitIn, 0) {
		t.Errorf("HALO wait_in = %g, want 0 (receiver was late, not blocked)", halo.WaitIn)
	}
	if halo.LateRecvN != 1 || !approx(halo.LateRecvSat, 2) {
		t.Errorf("late receivers = %d (sat %g), want 1 (sat 2)", halo.LateRecvN, halo.LateRecvSat)
	}
	if halo.DominantCause != CauseCompute {
		t.Errorf("HALO dominant cause = %q, want compute (no wait)", halo.DominantCause)
	}
}

// TestCollectiveWaitGroundTruth: rank 0 reaches the barrier at t=1 and
// blocks on its internal (tag<0) message until rank 1 arrives at t=4. The
// wait must land in the collective-wait bucket of the enclosing SYNC
// section and on the Barrier collective stat, not in late-sender.
func TestCollectiveWaitGroundTruth(t *testing.T) {
	events := []trace.Event{
		enter(0, "MPI_MAIN", 0), enter(0, "SYNC", 1),
		{T: 1, Rank: 0, Kind: trace.KindCollective, Label: "Barrier"},
		recv(0, 1, -1000, 4.5, 4, 1, 4.5),
		{T: 4.5, Rank: 0, Kind: trace.KindCollectiveEnd, Label: "Barrier"},
		leave(0, "SYNC", 4.5), leave(0, "MPI_MAIN", 5),
		enter(1, "MPI_MAIN", 0), enter(1, "SYNC", 4),
		{T: 4, Rank: 1, Kind: trace.KindCollective, Label: "Barrier"},
		{T: 4, Rank: 1, Kind: trace.KindSend, Peer: 0, Tag: -1000, Bytes: 0},
		{T: 4.5, Rank: 1, Kind: trace.KindCollectiveEnd, Label: "Barrier"},
		leave(1, "SYNC", 4.5), leave(1, "MPI_MAIN", 5),
	}
	a, err := Analyze(events, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sync := sectionByName(t, a, "SYNC")
	if !approx(sync.CollWait, 3.5) || !approx(sync.LateSender, 0) {
		t.Errorf("SYNC coll_wait = %g late_sender = %g, want 3.5 / 0", sync.CollWait, sync.LateSender)
	}
	if sync.DominantCause != CauseCollectiveWait {
		t.Errorf("SYNC dominant cause = %q, want %q", sync.DominantCause, CauseCollectiveWait)
	}
	if len(a.Colls) != 1 || a.Colls[0].Name != "Barrier" {
		t.Fatalf("collectives = %+v, want one Barrier", a.Colls)
	}
	b := a.Colls[0]
	if b.Spans != 2 || !approx(b.Time, 4.0) || !approx(b.Wait, 3.5) {
		t.Errorf("Barrier spans=%d time=%g wait=%g, want 2/4/3.5", b.Spans, b.Time, b.Wait)
	}
}

// TestCriticalPathGroundTruth checks the backward walk on the late-sender
// trace: the path must ride the message edge back to rank 0 and its length
// must equal the wall time exactly.
func TestCriticalPathGroundTruth(t *testing.T) {
	events := []trace.Event{
		enter(0, "MPI_MAIN", 0), enter(0, "WORK", 0),
		{T: 5, Rank: 0, Kind: trace.KindSend, Peer: 1, Tag: 0, Bytes: 100},
		leave(0, "WORK", 5), leave(0, "MPI_MAIN", 5),
		enter(1, "MPI_MAIN", 0), enter(1, "HALO", 1),
		recv(1, 0, 0, 6, 5, 1, 6),
		leave(1, "HALO", 6), leave(1, "MPI_MAIN", 6),
	}
	a, err := Analyze(events, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(a.CritLen, a.Wall) {
		t.Fatalf("critical path length %g != wall %g", a.CritLen, a.Wall)
	}
	// Earliest-first: compute [0,5] on rank 0 in WORK, transfer [5,6] into
	// rank 1's HALO.
	if len(a.CritPath) != 2 {
		t.Fatalf("path = %+v, want 2 segments", a.CritPath)
	}
	c0, c1 := a.CritPath[0], a.CritPath[1]
	if c0.Kind != "compute" || c0.Rank != 0 || c0.Section != "WORK" || !approx(c0.From, 0) || !approx(c0.To, 5) {
		t.Errorf("segment 0 = %+v, want compute rank0 WORK [0,5]", c0)
	}
	if c1.Kind != "transfer" || c1.Rank != 1 || c1.Peer != 0 || !approx(c1.From, 5) || !approx(c1.To, 6) {
		t.Errorf("segment 1 = %+v, want transfer rank1 from rank0 [5,6]", c1)
	}
	halo := sectionByName(t, a, "HALO")
	work := sectionByName(t, a, "WORK")
	if !approx(work.CritTime, 5) || !approx(halo.CritTime, 1) {
		t.Errorf("crit time WORK=%g HALO=%g, want 5/1", work.CritTime, halo.CritTime)
	}
	if !approx(work.CritShare+halo.CritShare, 1) {
		t.Errorf("crit shares sum to %g, want 1", work.CritShare+halo.CritShare)
	}
}

// TestAnalyzeEmpty rejects an empty stream.
func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Fatal("Analyze(nil) succeeded, want error")
	}
}

// recordedRun executes a small convolution run with the trace collector
// attached and returns the replayable event stream.
func recordedRun(t *testing.T, ranks, steps int) []trace.Event {
	t.Helper()
	return recordedBuffer(t, ranks, steps).Events()
}

// TestPropertyAccounting is the satellite property test on a real recorded
// run: per rank, wait + compute + residual must equal the wall time within
// tolerance, and the critical path must tile the makespan exactly.
func TestPropertyAccounting(t *testing.T) {
	events := recordedRun(t, 4, 3)
	a, err := Analyze(events, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Ranks != 4 {
		t.Fatalf("ranks = %d, want 4", a.Ranks)
	}
	tol := 1e-9 * a.Wall
	for _, rb := range a.Ranked {
		sum := rb.Wait + rb.Compute + rb.Residual
		if math.Abs(sum-a.Wall) > tol {
			t.Errorf("rank %d: wait %g + compute %g + residual %g = %g != wall %g",
				rb.Rank, rb.Wait, rb.Compute, rb.Residual, sum, a.Wall)
		}
		if rb.Wait < 0 || rb.Wait > rb.Wall+tol {
			t.Errorf("rank %d wait %g outside [0, wall %g]", rb.Rank, rb.Wait, rb.Wall)
		}
	}
	// The backward walk starts at the makespan and MPI_MAIN opens at t=0 on
	// every rank, so the path must tile [0, wall].
	if math.Abs(a.CritLen-a.Wall) > tol {
		t.Errorf("critical path %g != wall %g", a.CritLen, a.Wall)
	}
	var share float64
	for _, d := range a.Sections {
		share += d.CritShare
		if d.WaitIn+tol < d.LateSender+d.Transfer+d.CollWait {
			t.Errorf("%s: wait split exceeds wait_in", d.Section)
		}
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("critical-path shares sum to %g, want 1", share)
	}
	// Path segments must chain contiguously in time.
	for i := 1; i < len(a.CritPath); i++ {
		if math.Abs(a.CritPath[i].From-a.CritPath[i-1].To) > tol {
			t.Errorf("path gap between segment %d and %d: %+v -> %+v",
				i-1, i, a.CritPath[i-1], a.CritPath[i])
		}
	}
}

// TestDiagnosisDeterministic: analyzing the same deterministic run twice
// must produce identical reports (the experiment CSV columns depend on it).
func TestDiagnosisDeterministic(t *testing.T) {
	a1, err := Analyze(recordedRun(t, 3, 2), Options{SeqTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Analyze(recordedRun(t, 3, 2), Options{SeqTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Render() != a2.Render() {
		t.Error("two analyses of the same deterministic run differ")
	}
}

// TestAnalyzeLeavesInputAlone: Analyze takes events in any order and never
// reorders the caller's slice — it normalizes a copy, and only when the
// input is not already canonical.
func TestAnalyzeLeavesInputAlone(t *testing.T) {
	sorted := recordedRun(t, 3, 2)
	// Rank by rank, last rank first: out of order, with each rank's own
	// recording order (which is the nesting of its sections) kept.
	var byRank []trace.Event
	for rank := 2; rank >= 0; rank-- {
		for _, e := range sorted {
			if e.Rank == rank {
				byRank = append(byRank, e)
			}
		}
	}
	orig := append([]trace.Event(nil), byRank...)
	want, err := Analyze(sorted, Options{SeqTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Analyze(byRank, Options{SeqTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Error("analysis depends on the order events are handed over in")
	}
	if len(byRank) != len(sorted) || !reflect.DeepEqual(byRank, orig) {
		t.Error("Analyze reordered the caller's slice")
	}
}

// TestRoundTripThroughCSV: the diagnosis must survive the CSV codec — the
// offline secanalyze path reads exactly what the collector wrote.
func TestRoundTripThroughCSV(t *testing.T) {
	events := recordedRun(t, 3, 2)
	var sb bytes.Buffer
	if err := trace.WriteEventsCSV(&sb, events); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadCSV(&sb)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := Analyze(events, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Analyze(back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Render() != a2.Render() {
		t.Error("analysis differs after CSV round trip")
	}
}

// TestDeadPeerWaitClass: a dead-peer event classifies as its own wait
// component, attributed to the section stamped on the event, dominates the
// cause when largest, and flags the whole analysis as degraded.
func TestDeadPeerWaitClass(t *testing.T) {
	events := []trace.Event{
		{T: 0, Rank: 0, Kind: trace.KindSectionEnter, Label: "MPI_MAIN"},
		{T: 0, Rank: 1, Kind: trace.KindSectionEnter, Label: "MPI_MAIN"},
		{T: 1, Rank: 1, Kind: trace.KindSectionEnter, Label: "HALO"},
		// Rank 1 blocks at t=1 in HALO; the peer dies at t=4 (3s lost).
		{T: 4, Rank: 1, Kind: trace.KindDeadPeer, Label: "HALO", Peer: 0, PostT: 1},
		{T: 4, Rank: 1, Kind: trace.KindSectionLeave, Label: "HALO"},
		// The injected kill itself.
		{T: 1, Rank: 0, Kind: trace.KindFault, Label: "kill", Peer: -1},
		{T: 1, Rank: 0, Kind: trace.KindSectionLeave, Label: "MPI_MAIN"},
		{T: 4.5, Rank: 1, Kind: trace.KindSectionLeave, Label: "MPI_MAIN"},
	}
	a, err := Analyze(events, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Faults != 1 || a.DeadWaits != 1 {
		t.Fatalf("Faults=%d DeadWaits=%d, want 1 and 1", a.Faults, a.DeadWaits)
	}
	var halo *SectionDiagnosis
	for i := range a.Sections {
		if a.Sections[i].Section == "HALO" {
			halo = &a.Sections[i]
		}
	}
	if halo == nil {
		t.Fatalf("no HALO diagnosis in %+v", a.Sections)
	}
	if halo.DeadWait != 3 || halo.DeadPeerN != 1 || halo.WaitIn != 3 {
		t.Errorf("HALO dead wait = %v (n=%d, wait_in=%v), want 3s/1/3s", halo.DeadWait, halo.DeadPeerN, halo.WaitIn)
	}
	if halo.DominantCause != CauseDeadPeer {
		t.Errorf("HALO cause = %q, want %q", halo.DominantCause, CauseDeadPeer)
	}
	out := a.Render()
	if !strings.Contains(out, "DEGRADED RUN") || !strings.Contains(out, "dead-peer") {
		t.Errorf("report does not surface the degradation:\n%s", out)
	}
	// A healthy analysis must not carry the degraded banner.
	healthy, err := Analyze(events[:3], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(healthy.Render(), "DEGRADED") {
		t.Error("healthy run rendered as degraded")
	}
}
