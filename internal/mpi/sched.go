//go:build go1.23

// The tag sets this file's language version to go1.23, for iter.Pull.

package mpi

import (
	"errors"
	"iter"
	"sync"
)

// rankQueue is a FIFO of ranks linked through rankState.next: a world's run
// queue, or the ranks parked on one rendezvous generation or rooted call.
type rankQueue struct{ head, tail *rankState }

func (q *rankQueue) push(rs *rankState) {
	if q.tail == nil {
		q.head = rs
	} else {
		q.tail.next = rs
	}
	q.tail = rs
}

func (q *rankQueue) pop() (rs *rankState) {
	if rs = q.head; rs != nil {
		if q.head, rs.next = rs.next, nil; q.head == nil {
			q.tail = nil
		}
	}
	return rs
}

// wakeAll makes q's ranks runnable, in order.
func (q *rankQueue) wakeAll() {
	for rs := q.pop(); rs != nil; rs = q.pop() {
		rs.wake()
	}
}

// wake makes a parked rank runnable.
func (rs *rankState) wake() { rs.world.runq.push(rs) }

// rankCo is a coroutine that runs rank rs, then the next it is given: next
// resumes it, true once rs ended; yield parks rs; link chains idle ones.
type rankCo struct {
	next  func() (bool, bool)
	yield func(bool) bool
	stop  func()
	rs    *rankState
	link  *rankCo
}

// coChain is a stack of idle coroutines.
type coChain struct {
	head *rankCo
	n    int
}

func (c *coChain) push(co *rankCo) { co.link, c.head, c.n = c.head, co, c.n+1 }

func (c *coChain) pop() (co *rankCo) {
	if co = c.head; co != nil {
		c.head, co.link, c.n = co.link, nil, c.n-1
	}
	return co
}

// coPoolMax bounds the idle coroutines coPool keeps (an iter.Pull costs 11
// allocations): more than extreme-scale's overlapping 10,000- and 4,096-rank
// worlds use, each coroutine a parked goroutine of a few KiB of stack.
const coPoolMax = 128 << 10

// coPool keeps up to coPoolMax idle coroutines for the worlds of the process.
// A world hands its own back in one run and takes shardSize at a time, so
// two worlds side by side seldom switch among coroutines interleaved in
// memory: one coroutine at a time from one list ran sweeps ~8 % slower. It is
// not a park.Stack: a coroutine the pool cannot keep must be stopped.
var coPool struct {
	sync.Mutex
	coChain
}

// PooledRankGoroutines reports how many idle rank coroutines, each a parked
// goroutine, the runtime keeps between runs; leak checks subtract them.
func PooledRankGoroutines() int {
	coPool.Lock()
	defer coPool.Unlock()
	return coPool.n
}

// takeCo returns an idle coroutine: the world's, a pooled one or a new one.
func (w *World) takeCo() *rankCo {
	if w.idle.head == nil {
		coPool.Lock()
		for w.idle.n < shardSize && coPool.head != nil {
			w.idle.push(coPool.pop())
		}
		coPool.Unlock()
	}
	if co := w.idle.pop(); co != nil {
		return co
	}
	co := new(rankCo)
	co.next, co.stop = iter.Pull(func(yield func(bool) bool) {
		co.yield = yield
		for {
			co.rs.world.rankMain(co.rs)
			if !yield(true) {
				return
			}
		}
	})
	return co
}

// putIdle hands the world's idle coroutines to the pool, ending those a full
// pool cannot keep.
func (w *World) putIdle() {
	coPool.Lock()
	defer coPool.Unlock()
	for co := w.idle.pop(); co != nil; co = w.idle.pop() {
		if coPool.push(co); coPool.n > coPoolMax {
			coPool.pop().stop()
		}
	}
}

// drive runs the world's ranks, then closes done. A rank's runtime.Goexit
// unwinds it through iter.Pull; a new driver then aborts and drains the world.
func (w *World) drive() {
	ended := false
	defer func() {
		if !ended {
			w.abort(errors.New("mpi: a rank exited through runtime.Goexit"))
			go w.drive()
			return
		}
		w.putIdle()
		close(w.done)
	}()
	w.schedule()
	ended = true
}

// schedule resumes queued ranks one at a time. An empty queue brings up a
// lazy world's next shard; with none left, ranks still running are parked
// for good, and the driver aborts the run with their deadlock report. Only
// the driver turns an abort, the watchdog's too, into a revocation, between
// two ranks.
func (w *World) schedule() {
	revoked := false
	for {
		if !revoked && w.abortSet.Load() {
			revoked = true
			w.revokeAll()
		}
		rs := w.runq.pop()
		if rs == nil {
			if !revoked && w.nextShard < len(w.shards) {
				w.ensureShard(&w.shards[w.nextShard])
				w.nextShard++
			} else if w.running == 0 || revoked {
				return
			} else {
				w.abort(w.deadlock())
			}
			continue
		}
		if rs.co == nil {
			rs.co = w.takeCo()
			rs.co.rs = rs
		}
		if ended, _ := rs.co.next(); ended {
			w.idle.push(rs.co)
			rs.co.rs, rs.co = nil, nil
		}
	}
}
