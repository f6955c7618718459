package prof

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/mpi"
)

// CommMatrix is a tool recording the point-to-point traffic volume between
// world ranks — the classic communication-matrix view IPM popularized and
// the paper's related work references. Attach via mpi.Config.Tools.
//
// Traffic sent while a rank is inside a collective (the algorithm's internal
// tag<0 messages) is left out: the matrix shows user point-to-point traffic.
type CommMatrix struct {
	mpi.BaseTool
	mu        sync.Mutex
	size      int
	bytes     [][]int64 // [src][dst] user p2p payload bytes
	msgs      [][]int64 // [src][dst] user p2p message count
	collDepth []int     // per-rank collective nesting depth
}

// NewCommMatrix returns an empty collector.
func NewCommMatrix() *CommMatrix { return &CommMatrix{} }

// Init implements mpi.Tool.
func (m *CommMatrix) Init(w *mpi.WorldInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.size = w.Size
	m.bytes = make([][]int64, w.Size)
	m.msgs = make([][]int64, w.Size)
	for i := range m.bytes {
		m.bytes[i] = make([]int64, w.Size)
		m.msgs[i] = make([]int64, w.Size)
	}
	m.collDepth = make([]int, w.Size)
}

// MessageSent implements mpi.Tool.
func (m *CommMatrix) MessageSent(c *mpi.Comm, dst, tag, bytes int, t float64) {
	src := c.WorldRank()
	d := c.WorldRankOf(dst)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bytes == nil || src >= m.size || d >= m.size {
		return
	}
	// A negative tag or an open participation span marks algorithm-internal
	// collective traffic; keep it out of the user p2p matrix.
	if tag < 0 || (src < len(m.collDepth) && m.collDepth[src] > 0) {
		return
	}
	m.bytes[src][d] += int64(bytes)
	m.msgs[src][d]++
}

// CollectiveBegin implements mpi.Tool: the rank is inside a collective.
func (m *CommMatrix) CollectiveBegin(c *mpi.Comm, name string, t float64) {
	r := c.WorldRank()
	m.mu.Lock()
	defer m.mu.Unlock()
	if r < len(m.collDepth) {
		m.collDepth[r]++
	}
}

// CollectiveEnd implements mpi.Tool: the collective is over.
func (m *CommMatrix) CollectiveEnd(c *mpi.Comm, name string, t float64) {
	r := c.WorldRank()
	m.mu.Lock()
	defer m.mu.Unlock()
	if r < len(m.collDepth) && m.collDepth[r] > 0 {
		m.collDepth[r]--
	}
}

// matrixGlyphs maps normalized volume to a character, cold to hot.
const matrixGlyphs = " .:-=+*#%@"

// Render draws the byte matrix as an ASCII heat map (rows = senders,
// columns = receivers), normalized to the hottest pair.
func (m *CommMatrix) Render() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.size == 0 {
		return "(no communication recorded)\n"
	}
	// Scale by payload volume; when every message was empty (pure
	// synchronization traffic, e.g. barriers) fall back to message counts
	// so the pattern still shows.
	grid, unit := m.bytes, "B"
	var maxV int64
	for _, row := range grid {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		grid, unit = m.msgs, "msgs"
		for _, row := range grid {
			for _, v := range row {
				if v > maxV {
					maxV = v
				}
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "communication matrix (%d ranks, rows send → columns receive, max %d %s/pair)\n",
		m.size, maxV, unit)
	for src := 0; src < m.size; src++ {
		fmt.Fprintf(&sb, "%4d |", src)
		for dst := 0; dst < m.size; dst++ {
			idx := 0
			if maxV > 0 {
				idx = int(float64(grid[src][dst]) / float64(maxV) * float64(len(matrixGlyphs)-1))
			}
			sb.WriteByte(matrixGlyphs[idx])
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

var _ mpi.Tool = (*CommMatrix)(nil)
