package prof

import (
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
)

func runWithMatrix(t *testing.T, ranks int, fn func(*mpi.Comm) error) *CommMatrix {
	t.Helper()
	m := NewCommMatrix()
	cfg := mpi.Config{
		Ranks: ranks, Model: machine.Ideal(ranks, 1), Seed: 1,
		Tools: []mpi.Tool{m}, Timeout: 60 * time.Second,
	}
	if _, err := mpi.Run(cfg, fn); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCommMatrixRecordsTraffic(t *testing.T) {
	m := runWithMatrix(t, 3, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, make([]byte, 100)); err != nil {
				return err
			}
			return c.Send(2, 0, make([]byte, 200))
		}
		_, _, err := c.Recv(0, 0)
		return err
	})
	if got := m.bytes[0][1]; got != 100 {
		t.Errorf("Bytes(0,1) = %d", got)
	}
	if got := m.bytes[0][2]; got != 200 {
		t.Errorf("Bytes(0,2) = %d", got)
	}
	if got := m.bytes[1][0]; got != 0 {
		t.Errorf("Bytes(1,0) = %d, want 0", got)
	}
	if got := m.msgs[0][1]; got != 1 {
		t.Errorf("Messages(0,1) = %d", got)
	}
}

func TestCommMatrixVirtualSizes(t *testing.T) {
	// SendSized records the modeled size, consistent with what the
	// machine model charged.
	m := runWithMatrix(t, 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return c.SendSized(1, 0, []byte{1}, 4096)
		}
		_, _, err := c.Recv(0, 0)
		return err
	})
	if got := m.bytes[0][1]; got != 4096 {
		t.Errorf("virtual bytes = %d, want 4096", got)
	}
}

func TestCommMatrixSubcommunicatorTraffic(t *testing.T) {
	// Traffic on a split communicator is attributed to world ranks.
	m := runWithMatrix(t, 4, func(c *mpi.Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		// Odd subcomm: world ranks 1 and 3; rank 0 of it is world rank 1.
		if c.Rank()%2 == 1 {
			if sub.Rank() == 0 {
				return sub.Send(1, 0, make([]byte, 64))
			}
			_, _, err := sub.Recv(0, 0)
			return err
		}
		return nil
	})
	if got := m.bytes[1][3]; got != 64 {
		t.Errorf("world-attributed bytes(1,3) = %d, want 64", got)
	}
}

func TestCommMatrixStencilShape(t *testing.T) {
	// A ring exchange fills exactly the two off-diagonals (plus corners).
	const p = 6
	m := runWithMatrix(t, p, func(c *mpi.Comm) error {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		if err := c.SendSized(right, 0, make([]byte, 10), 10); err != nil {
			return err
		}
		_, _, err := c.Recv(left, 0)
		return err
	})
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			want := int64(0)
			if dst == (src+1)%p {
				want = 10
			}
			if got := m.bytes[src][dst]; got != want {
				t.Errorf("Bytes(%d,%d) = %d, want %d", src, dst, got, want)
			}
		}
	}
}

func TestCommMatrixRender(t *testing.T) {
	m := runWithMatrix(t, 4, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return c.Send(3, 0, make([]byte, 1000))
		}
		if c.Rank() == 3 {
			_, _, err := c.Recv(0, 0)
			return err
		}
		return nil
	})
	out := m.Render()
	if !strings.Contains(out, "communication matrix (4 ranks") {
		t.Errorf("header missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "@") { // row of rank 0 has the hot cell
		t.Errorf("hot cell missing:\n%s", out)
	}
	empty := NewCommMatrix()
	if !strings.Contains(empty.Render(), "no communication") {
		t.Error("empty matrix render wrong")
	}
}

func TestCommMatrixSeparatesCollectiveTraffic(t *testing.T) {
	// A barrier's internal messages must stay out of the matrix, while
	// user p2p traffic in the same run lands in it.
	const p = 4
	m := runWithMatrix(t, p, func(c *mpi.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 128))
		}
		if c.Rank() == 1 {
			_, _, err := c.Recv(0, 0)
			return err
		}
		return nil
	})
	if got := m.bytes[0][1]; got != 128 {
		t.Errorf("user Bytes(0,1) = %d, want 128", got)
	}
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			// The barrier's internal traffic must NOT pollute the p2p view.
			if src == 0 && dst == 1 {
				continue
			}
			if got := m.msgs[src][dst]; got != 0 {
				t.Errorf("collective traffic leaked into p2p Messages(%d,%d) = %d", src, dst, got)
			}
		}
	}
}
