package mpi

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/stats"
)

// The reference: DESIGN.md §5 as a sequential LogGP interpreter, the oracle
// the runtime's virtual time is held to. A generated program (barrier_test.go,
// exchange_test.go, rooted_test.go) is first lowered to one list of
// operations per rank — computes, sends, receive posts and waits, and the
// hooks' section and collective events — with every collective spelled out
// as the messages of its algorithm: the dissemination rounds, the binomial
// trees, the linear fan-out and fan-in and the exchange loop. The
// interpreter then runs the lists with one clock per rank and, per mailbox,
// one list of messages in send order: no pools, shards, coroutines or
// rendezvous, and none of the runtime's stamp or completion code, only
// machine.Model's cost functions, the placement and rank streams seeded as
// the runtime seeds them.
//
//	send:    clock += o_send; arrival = clock + MsgTime(vbytes, route, jitter)
//	receive: clock = max(clock + o_recv, arrival)

// Operation kinds of a lowered program.
const (
	refCompute = iota
	refSleep
	refStorage
	refSend
	refPost // a receive posted; it does not wait
	refWait // the wait for a posted receive's message
	refEnter
	refLeave
	refBegin
	refEnd
)

var refHookKinds = [...]string{refEnter: "enter", refLeave: "leave", refBegin: "begin", refEnd: "end"}

// refComm is a communicator of the reference: its members' world ranks, and
// the communicators its Splits made, by the member's Split ordinal and colour.
type refComm struct {
	group  []int
	splits []int // per member, its Splits so far
	kids   map[[2]int]*refComm
}

func newRefComm(group []int) *refComm {
	return &refComm{group: group, splits: make([]int, len(group)), kids: map[[2]int]*refComm{}}
}

// refOp is one operation of a rank's lowered program.
type refOp struct {
	kind               int
	c                  *refComm
	rank               int // the rank's place in c
	peer, tag, hookTag int // comm ranks; a hookTag of AnyTag reports the message's tag
	vbytes, req        int
	w                  WorkUnit
	d                  float64
	n                  int
	label              string
	// The call the op is part of, and the comm rank it waits on (-1 for
	// none): what a rank left waiting in the op is reported in.
	call     string
	callPeer int
}

// refRank is a rank's program as it is lowered; call, when set, is the call
// being lowered, which names every op it emits.
type refRank struct {
	ops      []refOp
	reqs     int
	call     string
	callPeer int
}

// refHandle is a rank's handle on a reference communicator; the zero value
// is no communicator. Its methods lower the runtime's calls.
type refHandle struct {
	rk   *refRank
	c    *refComm
	rank int
}

// refReq is a posted receive, by its index in the rank's program.
type refReq struct{ id, src int }

func (h refHandle) Rank() int               { return h.rank }
func (h refHandle) Size() int               { return len(h.c.group) }
func (h refHandle) WorldRank() int          { return h.c.group[h.rank] }
func (h refHandle) Compute(w WorkUnit)      { h.emit(refOp{kind: refCompute, w: w}) }
func (h refHandle) Sleep(d float64)         { h.emit(refOp{kind: refSleep, d: d}) }
func (h refHandle) StorageRead(n int)       { h.emit(refOp{kind: refStorage, n: n}) }
func (h refHandle) hook(kind int, l string) { h.emit(refOp{kind: kind, label: l}) }

func (h refHandle) emit(op refOp) {
	op.c, op.rank = h.c, h.rank
	if h.rk.call != "" {
		op.call, op.callPeer = h.rk.call, h.rk.callPeer
	}
	h.rk.ops = append(h.rk.ops, op)
}

// in names the ops body emits after call, waiting on peer; an enclosing
// call keeps its name (a Split's barrier is reported as the Split).
func (h refHandle) in(call string, peer int, body func()) {
	if h.rk.call != "" {
		body()
		return
	}
	h.rk.call, h.rk.callPeer = call, peer
	body()
	h.rk.call = ""
}

func (h refHandle) send(dst, tag, hookTag, vbytes int) {
	h.emit(refOp{kind: refSend, peer: dst, tag: tag, hookTag: hookTag, vbytes: vbytes})
}

func (h refHandle) irecv(src, tag int) refReq {
	h.rk.reqs++
	h.emit(refOp{kind: refPost, peer: src, tag: tag, req: h.rk.reqs})
	return refReq{h.rk.reqs, src}
}

func (h refHandle) wait(q refReq) {
	h.emit(refOp{kind: refWait, req: q.id, hookTag: AnyTag, call: "Wait", callPeer: q.src})
}

// recv is a blocking receive matched under tag and reported under hookTag.
func (h refHandle) recv(src, tag, hookTag int) {
	q := h.irecv(src, tag)
	h.emit(refOp{kind: refWait, req: q.id, hookTag: hookTag, call: "Recv", callPeer: src})
}

func (h refHandle) section(label string, body func()) {
	h.hook(refEnter, label)
	body()
	h.hook(refLeave, label)
}

func (h refHandle) barrier() {
	h.hook(refBegin, "Barrier")
	h.in("Barrier", -1, func() {
		p := h.Size()
		for step := 1; step < p; step *= 2 {
			h.send((h.rank+step)%p, tagBarrier, tagBarrier, 0)
			h.recv((h.rank-step+p)%p, tagBarrier, tagBarrier)
		}
	})
	h.hook(refEnd, "Barrier")
}

func (h refHandle) exchange(ops []GhostExchange) {
	h.in("ExchangeGhost", -1, func() {
		for _, x := range ops {
			h.send(x.Peer, x.SendTag, x.SendTag, x.VBytes)
			h.recv(x.Peer, x.RecvTag, x.RecvTag)
		}
	})
}

// split is Split with member r passing colorKey(r): the communicators are
// built from every member's colour and key, then the barrier a split implies.
func (h refHandle) split(colorKey func(r int) (color, key int)) refHandle {
	c := h.c
	color, _ := colorKey(h.rank)
	k := [2]int{c.splits[h.rank], color}
	c.splits[h.rank]++
	kid, ok := c.kids[k]
	if !ok && color >= 0 {
		var members [][2]int // key, rank
		for r := range c.group {
			if col, key := colorKey(r); col == color {
				members = append(members, [2]int{key, r})
			}
		}
		slices.SortFunc(members, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		group := make([]int, len(members))
		for i, m := range members {
			group[i] = c.group[m[1]]
		}
		kid = newRefComm(group)
		c.kids[k] = kid
	}
	h.in("Split", -1, h.barrier)
	if color < 0 {
		return refHandle{}
	}
	return refHandle{h.rk, kid, slices.Index(kid.group, h.WorldRank())}
}

func (h refHandle) bcast(root, nbytes int) {
	h.hook(refBegin, "Bcast")
	p := h.Size()
	vrank, mask := (h.rank-root+p)%p, 1
	for ; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			h.recv((vrank-mask+root)%p, tagBcast, tagBcast)
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := vrank + mask; child < p {
			h.send((child+root)%p, tagBcast, tagBcast, nbytes)
		}
	}
	h.hook(refEnd, "Bcast")
}

// allreduce is Allreduce of n floats: a binomial reduction to rank 0, then
// its Bcast.
func (h refHandle) allreduce(n int) {
	h.hook(refBegin, "Allreduce")
	h.hook(refBegin, "Reduce")
	for step := 1; step < h.Size(); step *= 2 {
		if h.rank%(2*step) != 0 {
			h.send(h.rank-step, tagReduce, tagReduce, 8*n)
			break
		}
		if peer := h.rank + step; peer < h.Size() {
			h.recv(peer, tagReduce, tagReduce)
		}
	}
	h.hook(refEnd, "Reduce")
	h.bcast(0, 8*n)
	h.hook(refEnd, "Allreduce")
}

func (h refHandle) scatter(root, tag int, dsts, vbytes []int) {
	h.in("ScatterGhost", root, func() {
		if h.rank != root {
			h.recv(root, tagScatterGhost, tag)
		}
		for i, dst := range dsts {
			h.send(dst, tagScatterGhost, tag, vbytes[i])
		}
	})
}

func (h refHandle) gather(root, tag, vbytes int) {
	h.in("GatherGhost", root, func() {
		if h.rank != root {
			h.send(root, tagGatherGhost, tag, vbytes)
			return
		}
		for r := range h.Size() {
			if r != root {
				h.recv(r, tagGatherGhost, tag)
			}
		}
	})
}

// ring is the jittered p2p after a step: a sendrecv of 64 bytes round
// the communicator.
func (h refHandle) ring() {
	n := h.Size()
	h.send((h.rank+1)%n, 5, 5, 64)
	h.recv((h.rank+n-1)%n, 5, 5)
}

// blockAfter lowers handoff_test.go's blockAfter.
func (h refHandle) blockAfter(kind int) {
	n, r := h.Size(), h.Rank()
	switch kind {
	case blockRecv, blockWait:
		if r+1 < n && kind == blockRecv {
			h.recv(r+1, tagHandOff, tagHandOff)
		} else if r+1 < n {
			h.wait(h.irecv(r+1, tagHandOff))
		}
		if r > 0 {
			h.send(r-1, tagHandOff, tagHandOff, 16)
		}
	case blockScatter:
		var dsts, sizes []int
		for d := 0; r == n-1 && d < n-1; d++ {
			dsts, sizes = append(dsts, d), append(sizes, 8)
		}
		h.scatter(n-1, tagHandOff, dsts, sizes)
	case blockGather:
		h.gather(0, tagHandOff, 8)
	case blockSplit:
		h.split(func(q int) (int, int) { return q % 2, -q })
	case blockAllreduce:
		h.allreduce(1)
	default: // blockBcast
		h.bcast(n-1, 16)
	}
}

// --- the generators' steps, lowered -----------------------------------------

func (pr *barrierProg) lower(world refHandle) error {
	sub := world.split(func(r int) (int, int) {
		if pr.backwards {
			return pr.colours[r], -r
		}
		return pr.colours[r], r
	})
	return runSteps(world, sub, pr.steps, stepEnd, pr.refStep)
}

func (pr *barrierProg) refStep(world, on refHandle, i, op int) error {
	switch op {
	case stepSkew:
		skew(on, pr.seed, i)
	case stepBarrier:
		on.barrier()
	case stepTriple:
		on.barrier()
		on.barrier()
		on.barrier()
	case stepNested:
		world.section("OUTER", func() { on.section("INNER", on.barrier) })
	case stepRing:
		on.barrier()
		on.ring()
	case stepBlock:
		on.barrier()
		on.blockAfter(i % numBlocks)
	case stepEnd:
		on.barrier()
		return errEndProg
	case stepWildcard:
		q := on.irecv(AnySource, AnyTag)
		on.barrier()
		on.send((on.rank+1)%on.Size(), tagWildcard, tagWildcard, 8)
		on.wait(q)
	default: // stepDup
		on.split(func(r int) (int, int) { return 0, r }).barrier()
	}
	return nil
}

func (pr *exchangeProg) lower(world refHandle) error {
	sub := world.split(func(r int) (int, int) {
		if pr.backwards {
			return pr.colours[r], -r
		}
		return pr.colours[r], r
	})
	return runSteps(world, sub, pr.steps, xEnd, pr.refStep)
}

func (pr *exchangeProg) refStep(world, on refHandle, i, op int) error {
	partner, low, high := pairs(on)
	switch op {
	case xSkew:
		skew(on, pr.seed, i)
	case xChain, xMoore, xSelf, xTwice, xReordered, xEmpty:
		on.exchange(pr.list(on, i, op))
	case xNested:
		world.section("OUTER", func() { on.section("INNER", func() { on.exchange(pr.chain(on, i)) }) })
	case xRing:
		on.exchange(pr.chain(on, i))
		on.ring()
	case xQueuedSend, xOtherTag:
		tag := map[int]int{xQueuedSend: tagChainUp, xOtherTag: tagOther}[op]
		if low {
			on.send(partner, tag, tag, 640)
		}
		on.exchange(pr.pair(on, i, tagChainUp))
		if high {
			on.recv(partner, tag, tag)
		}
	case xPostedRecv:
		var q refReq
		if high {
			q = on.irecv(partner, tagChainUp)
		}
		on.exchange(pr.pair(on, i, tagChainUp))
		if low {
			on.send(partner, tagChainUp, tagChainUp, 640)
		}
		if high {
			on.wait(q)
		}
	case xBlock:
		on.exchange(pr.chain(on, i))
		on.blockAfter(i % numBlocks)
	case xEnd:
		on.exchange(pr.chain(on, i))
		return errEndProg
	case xScatter:
		pr.refScatter(on, i, 0, 0)
	case xGather:
		pr.refGather(on, i, 0, 0)
	case xRootedRun:
		for k := 0; k < 3; k++ {
			pr.refScatter(on, i, k/2, k)
		}
		for k := 0; k < 3; k++ {
			pr.refGather(on, i, k/2, k)
		}
	default: // xRootedP2P
		pr.refRootedAmongP2P(on, i)
	}
	return nil
}

func (pr *exchangeProg) refScatter(on refHandle, i, key, k int) {
	root, dsts, _, vbytes := pr.fanOut(on, i, key, k)
	on.scatter(root, tagRooted, dsts, vbytes)
}

func (pr *exchangeProg) refGather(on refHandle, i, key, k int) {
	_, v := pr.sizes(i, on.Rank(), 20+k)
	on.gather(pr.root(on, i, key), tagRooted, v)
}

// refRootedAmongP2P lowers rootedAmongP2P.
func (pr *exchangeProg) refRootedAmongP2P(on refHandle, i int) {
	n, me := on.Size(), on.Rank()
	root := pr.root(on, i, 0)
	x, y := (root+1)%n, (root+2)%n
	if y == root {
		y = -1
	}
	var reqs []refReq
	switch {
	case n == 1:
	case me == root:
		on.send(x, tagRooted, tagRooted, 641)
		if y >= 0 {
			reqs = append(reqs, on.irecv(y, tagRooted))
		}
	case me == x:
		on.send(root, tagRooted, tagRooted, 641)
	case me == y:
		reqs = append(reqs, on.irecv(root, tagRooted))
	}
	pr.refScatter(on, i, 0, 0)
	pr.refGather(on, i, 0, 1)
	switch {
	case n == 1:
	case me == root:
		if y >= 0 {
			on.send(y, tagRooted, tagRooted, 1283)
		}
		on.recv(x, tagRooted, tagRooted)
	case me == x:
		on.recv(root, tagRooted, tagRooted)
	case me == y:
		on.send(root, tagRooted, tagRooted, 1283)
	}
	for _, q := range reqs {
		on.wait(q)
	}
}

// --- the interpreter --------------------------------------------------------

// lowerProgram lowers fn for every rank of a world of p, inside MPI_MAIN.
func lowerProgram(p int, fn func(world refHandle) error) [][]refOp {
	world := newRefComm(identityGroup(p))
	progs := make([][]refOp, p)
	for r := range progs {
		h := refHandle{&refRank{}, world, r}
		h.hook(refEnter, MainSection)
		if err := fn(h); err != nil && !errors.Is(err, errEndProg) {
			panic(err)
		}
		h.hook(refLeave, MainSection)
		progs[r] = h.rk.ops
	}
	return progs
}

type refMsg struct {
	c                   *refComm
	src, dst, tag, vbyt int
	sendT, arrival      float64
}

type refRecv struct {
	c             *refComm
	dst, src, tag int
	postT         float64
	m             *refMsg
}

// matches is the runtime's matching rule: AnyTag takes users' tags only.
func (r *refRecv) matches(m *refMsg) bool {
	return r.c == m.c && r.dst == m.dst && (r.src == AnySource || r.src == m.src) &&
		(r.tag == m.tag || r.tag == AnyTag && m.tag >= 0)
}

// refStuck is a rank left waiting: the call and the world rank it waits on,
// and the receive it waits in, in comm ranks.
type refStuck struct {
	rank, peer int
	call       string
	src, tag   int
}

// runReference runs the lowered programs of a world of len(progs) ranks.
// Ranks that can still move run in rank order, each until it waits for a
// message nobody has sent; those left waiting when none can move are stuck.
func runReference(seed uint64, model *machine.Model, progs [][]refOp) (*progResult, []refStuck) {
	p := len(progs)
	placement, err := machine.NewPlacement(model, p, 1)
	if err != nil {
		panic(err)
	}
	type rankRun struct {
		clock float64
		rng   stats.RNG
		noise machine.NoiseMemo
		pc    int
		reqs  []*refRecv // by request id - 1: ids count a rank's posts from 1
		// waiting marks a rank stopped at a wait whose receive is unfilled:
		// a pass skips it until a send fills the receive.
		waiting bool
	}
	ranks := make([]rankRun, p)
	for r := range ranks {
		ranks[r].rng.Seed(mixSeed(seed, uint64(r)))
	}
	// The event lists, by (communicator, destination), as the runtime's
	// mailboxes: sent and not yet received, in send order, and receives
	// posted and not yet filled, in post order. A message and a receive
	// match only within one key, so the first match of a key's list is the
	// first of one global list.
	type box struct {
		c   *refComm
		dst int
	}
	sent := map[box][]*refMsg{}
	posted := map[box][]*refRecv{}
	res := &progResult{times: make([]float64, p), hooks: make([][]hookEvent, p)}
	step := func(r int) bool {
		rr, op := &ranks[r], &progs[r][ranks[r].pc]
		advance := func(d float64) {
			if d > 0 {
				rr.clock += d
			}
		}
		hook := func(e hookEvent) {
			e.size, e.rank, e.now = len(op.c.group), op.rank, rr.clock
			res.hooks[r] = append(res.hooks[r], e)
		}
		switch op.kind {
		case refCompute:
			d := placement.ComputeTime(r, op.w, 1) + model.ForkJoinOverhead(1, placement.NodeThreads(r))
			advance(d + model.NoiseSample(d, &rr.rng, &rr.noise))
		case refSleep:
			advance(op.d)
		case refStorage:
			advance(model.StorageTime(op.n))
		case refSend:
			advance(model.Net.SendOverhead)
			route := placement.SameNode(op.c.group[op.rank], op.c.group[op.peer])
			transfer := model.MsgTime(op.vbytes, route, placement.NodesInUse(), &rr.rng)
			m := &refMsg{c: op.c, src: op.rank, dst: op.peer, tag: op.tag, vbyt: op.vbytes, sendT: rr.clock, arrival: rr.clock + transfer}
			hook(hookEvent{kind: "sent", peer: op.peer, tag: op.hookTag, bytes: op.vbytes, t: rr.clock})
			k := box{m.c, m.dst}
			if i := slices.IndexFunc(posted[k], func(q *refRecv) bool { return q.matches(m) }); i >= 0 {
				posted[k][i].m = m
				ranks[op.c.group[m.dst]].waiting = false
				posted[k] = slices.Delete(posted[k], i, i+1)
			} else {
				sent[k] = append(sent[k], m)
			}
		case refPost:
			q := &refRecv{c: op.c, dst: op.rank, src: op.peer, tag: op.tag, postT: rr.clock}
			rr.reqs = append(rr.reqs, q)
			k := box{q.c, q.dst}
			if i := slices.IndexFunc(sent[k], q.matches); i >= 0 {
				q.m = sent[k][i]
				sent[k] = slices.Delete(sent[k], i, i+1)
			} else {
				posted[k] = append(posted[k], q)
			}
		case refWait:
			q := rr.reqs[op.req-1]
			if q.m == nil {
				rr.waiting = true
				return false
			}
			advance(model.Net.RecvOverhead)
			rr.clock = max(rr.clock, q.m.arrival)
			tag := op.hookTag
			if tag == AnyTag {
				tag = q.m.tag
			}
			hook(hookEvent{kind: "recv", peer: q.m.src, tag: tag, bytes: q.m.vbyt, t: rr.clock,
				m: MatchInfo{SendT: q.m.sendT, PostT: q.postT, Arrival: q.m.arrival}})
		default:
			hook(hookEvent{kind: refHookKinds[op.kind], label: op.label, t: rr.clock})
		}
		rr.pc++
		return true
	}
	for moved := true; moved; {
		moved = false
		for r := range ranks {
			for !ranks[r].waiting && ranks[r].pc < len(progs[r]) && step(r) {
				moved = true
			}
		}
	}
	var stuck []refStuck
	for r, rr := range ranks {
		res.times[r] = rr.clock
		res.frontier = max(res.frontier, rr.clock)
		if rr.pc < len(progs[r]) {
			op := &progs[r][rr.pc]
			q := rr.reqs[op.req-1]
			peer := -1
			if op.callPeer >= 0 {
				peer = op.c.group[op.callPeer]
			}
			stuck = append(stuck, refStuck{rank: r, peer: peer, call: op.call, src: q.src, tag: q.tag})
		}
	}
	return res, stuck
}

// checkReference runs a program on the runtime, with no plan and a tool
// attached, and in the reference, and holds the two to each other.
func checkReference(t *testing.T, p int, seed uint64, run func(*Comm) error, lower func(refHandle) error) {
	t.Helper()
	got, err := runProg(p, seed, progVariant{tool: true}, run)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	want, stuck := runReference(seed, machine.ExtremeCluster(), lowerProgram(p, lower))
	if len(stuck) > 0 {
		t.Fatalf("the reference left %d ranks waiting, the first %+v", len(stuck), stuck[0])
	}
	if d := diffProgResults(want, got); d != "" {
		t.Errorf("runtime against the reference: %s", d)
	}
}

// TestReferenceMatchesRuntime holds the runtime to the reference on every
// named program of both generators, the rooted one included, at a range of
// world sizes, and on random programs of each.
func TestReferenceMatchesRuntime(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 64} {
		t.Run(fmt.Sprintf("named/p%d", p), func(t *testing.T) {
			for _, pr := range []*exchangeProg{namedExchangeProg(p), namedRootedProg(p)} {
				checkReference(t, p, pr.seed, pr.run, pr.lower)
			}
			pr := namedBarrierProg(p)
			checkReference(t, p, pr.seed, pr.run, pr.lower)
		})
	}
	n := 200
	if raceEnabled {
		n = 20
	}
	rng := stats.NewRNG(48)
	data := make([]byte, 32+96)
	draw := func() *byteSrc {
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		return &byteSrc{slices.Clone(data)}
	}
	t.Run("random", func(t *testing.T) {
		for g := 0; g < n; g++ {
			bp := decodeBarrierProg(draw(), 0)
			checkReference(t, bp.p, bp.seed, bp.run, bp.lower)
			xp := decodeExchangeProg(draw(), 0)
			checkReference(t, xp.p, xp.seed, xp.run, xp.lower)
		}
	})
}

// TestReferenceAcrossResolveChunks holds generations of more than two
// resolve chunks (exchange.go) to the reference: the world's generations
// span three, so under -cpu 2 and 4 helpers draw their transfers, and under
// -cpu 1 the last arriver alone. Barrier rounds and halo lists match bit for
// bit; with one rank in the third chunk receiving under a tag its peer never
// sends, the runtime and the reference name the same first waiting rank.
func TestReferenceAcrossResolveChunks(t *testing.T) {
	const p = 2*resolveChunk + 5
	bp, xp := namedBarrierProg(p), namedExchangeProg(p)
	checkReference(t, p, bp.seed, bp.run, bp.lower)
	checkReference(t, p, xp.seed, xp.run, xp.lower)

	const odd = 2*resolveChunk + 1
	lists := func(on member) []GhostExchange {
		ops := xp.moore(on, 0, true)
		if on.Rank() == odd {
			ops[0].RecvTag = tagOther
		}
		return ops
	}
	cfg := Config{Ranks: p, Model: machine.ExtremeCluster(), Seed: xp.seed, Timeout: time.Minute}
	var err0 error
	if _, err := Run(cfg, func(c *Comm) error {
		err := c.ExchangeGhost(lists(c), nil)
		if c.Rank() == 0 {
			err0 = err
		}
		return err
	}); err == nil {
		t.Fatal("the runtime exchanged lists that do not pair up")
	}
	_, stuck := runReference(xp.seed, cfg.Model, lowerProgram(p, func(h refHandle) error {
		h.exchange(lists(h))
		return nil
	}))
	if len(stuck) == 0 {
		t.Fatal("the reference left no rank waiting")
	}
	s := stuck[0]
	want := fmt.Sprintf("rank %d is left waiting for a message from rank %d under tag %d", s.rank, s.src, s.tag)
	if s.call != "ExchangeGhost" || err0 == nil || !strings.Contains(err0.Error(), want) {
		t.Errorf("the runtime reports %v; the reference's first waits in %s: %s", err0, s.call, want)
	}
}

// TestReferenceStuckSets: where the runtime reports a deadlock, or lists
// that do not pair up, the reference leaves ranks waiting, and its first
// names the same rank, call and peer.
func TestReferenceStuckSets(t *testing.T) {
	x := func(peer, tag int) GhostExchange {
		return GhostExchange{Peer: peer, SendTag: tag, NBytes: 8, VBytes: 8, RecvTag: tag}
	}
	unpaired := [][3][]GhostExchange{
		{{x(1, 1)}, {x(0, 1), {Peer: 2, SendTag: 1, NBytes: 8, VBytes: 8, RecvTag: 9}}, {x(1, 1)}},
		{nil, {x(2, 1)}, {x(1, 1), x(0, 1)}},
		{{x(1, 1), x(2, 1)}, {x(2, 1), x(0, 1)}, {x(0, 1), x(1, 1)}},
	}
	for i, lists := range unpaired {
		var errs [3]error
		if _, err := Run(testCfg(3), func(c *Comm) error {
			errs[c.Rank()] = c.ExchangeGhost(lists[c.Rank()], nil)
			return errs[c.Rank()]
		}); err == nil {
			t.Fatalf("lists %d: the runtime exchanged them", i)
		}
		_, stuck := runReference(1, machine.Ideal(3, 1), lowerProgram(3, func(h refHandle) error {
			h.exchange(lists[h.rank])
			return nil
		}))
		if len(stuck) == 0 {
			t.Fatalf("lists %d: the reference left no rank waiting", i)
		}
		s := stuck[0]
		want := fmt.Sprintf("rank %d is left waiting for a message from rank %d under tag %d", s.rank, s.src, s.tag)
		if s.call != "ExchangeGhost" || !strings.Contains(errs[0].Error(), want) {
			t.Errorf("lists %d: the runtime reports %v; the reference's first waits in %s: %s", i, errs[0], s.call, want)
		}
	}
	const p = 6
	for _, tc := range []struct {
		name  string
		run   func(c *Comm) error
		lower func(h refHandle)
	}{
		{"Barrier", func(c *Comm) error { return c.Barrier() }, refHandle.barrier},
		{"Split", func(c *Comm) error { _, err := c.Split(0, c.Rank()); return err },
			func(h refHandle) { h.split(func(r int) (int, int) { return 0, r }) }},
		{"Recv", func(c *Comm) error { _, _, err := c.Recv((c.Rank()+1)%p, 3); return err },
			func(h refHandle) { h.recv((h.rank+1)%p, 3, 3) }},
	} {
		// Rank 2 leaves at once: the rest wait for it, or for each other.
		_, err := Run(dlCfg(p), func(c *Comm) error {
			if c.Rank() == 2 {
				return nil
			}
			return tc.run(c)
		})
		var dl *DeadlockError
		if !errors.As(err, &dl) || len(dl.Blocked) == 0 {
			t.Fatalf("%s: err = %v, want a deadlock report", tc.name, err)
		}
		_, stuck := runReference(1, machine.Ideal(p, 1), lowerProgram(p, func(h refHandle) error {
			if h.rank != 2 {
				tc.lower(h)
			}
			return nil
		}))
		got, want := dl.Blocked[0], refStuck{}
		if len(stuck) > 0 {
			want = stuck[0]
		}
		if got.Rank != want.rank || got.Op != want.call || got.Peer != want.peer {
			t.Errorf("%s: the runtime's first blocked rank is %d in %s on %d; the reference's %+v", tc.name, got.Rank, got.Op, got.Peer, want)
		}
	}
}
