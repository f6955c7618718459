package mpi

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// recordingTool captures every hook invocation for assertions.
type recordingTool struct {
	BaseTool
	mu       sync.Mutex
	inits    int
	finals   int
	enters   []string // "rank:label"
	leaves   []string
	sent     int
	received int
	colls    []string
}

func (r *recordingTool) Init(*WorldInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inits++
}

func (r *recordingTool) Finalize(*Report) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finals++
}

func (r *recordingTool) SectionEnter(c *Comm, label string, t float64, data *ToolData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enters = append(r.enters, key(c.Rank(), label))
}

func (r *recordingTool) SectionLeave(c *Comm, label string, t float64, data *ToolData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.leaves = append(r.leaves, key(c.Rank(), label))
}

func (r *recordingTool) MessageSent(c *Comm, dst, tag, bytes int, t float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent++
}

func (r *recordingTool) MessageRecv(c *Comm, src, tag, bytes int, t float64, m MatchInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.received++
}

func (r *recordingTool) CollectiveBegin(c *Comm, name string, t float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.colls = append(r.colls, name)
}

func key(rank int, label string) string {
	return strings.Join([]string{string(rune('0' + rank)), label}, ":")
}

func countWith(xs []string, substr string) int {
	n := 0
	for _, x := range xs {
		if strings.Contains(x, substr) {
			n++
		}
	}
	return n
}

// openSections lists the rank's open section labels, outermost first.
func openSections(c *Comm) []string {
	var out []string
	for _, f := range c.shared.sections.perRank[c.rank].stack {
		out = append(out, f.label)
	}
	return out
}

func TestMainSectionImplicit(t *testing.T) {
	tool := &recordingTool{}
	cfg := testCfg(3)
	cfg.Tools = []Tool{tool}
	_, err := Run(cfg, func(c *Comm) error {
		if got := openSections(c); len(got) != 1 || got[0] != MainSection {
			t.Errorf("rank %d stack inside main = %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tool.inits != 1 || tool.finals != 1 {
		t.Errorf("Init/Finalize counts: %d/%d", tool.inits, tool.finals)
	}
	if n := countWith(tool.enters, MainSection); n != 3 {
		t.Errorf("MPI_MAIN entered %d times, want 3", n)
	}
	if n := countWith(tool.leaves, MainSection); n != 3 {
		t.Errorf("MPI_MAIN left %d times, want 3", n)
	}
}

func TestNestedSections(t *testing.T) {
	tool := &recordingTool{}
	cfg := testCfg(2)
	cfg.Tools = []Tool{tool}
	cfg.CheckSections = true
	_, err := Run(cfg, func(c *Comm) error {
		c.SectionEnter("outer")
		c.SectionEnter("inner")
		want := []string{MainSection, "outer", "inner"}
		if got := openSections(c); !reflect.DeepEqual(got, want) {
			t.Errorf("stack = %v, want %v", got, want)
		}
		if len(openSections(c)) != 3 {
			t.Errorf("depth = %d", len(openSections(c)))
		}
		c.SectionExit("inner")
		c.SectionExit("outer")
		if len(openSections(c)) != 1 {
			t.Errorf("depth after exits = %d", len(openSections(c)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := countWith(tool.enters, "inner"); n != 2 {
		t.Errorf("inner entered %d times", n)
	}
}

func TestSectionHelperNesting(t *testing.T) {
	cfg := testCfg(1)
	cfg.CheckSections = true
	_, err := Run(cfg, func(c *Comm) error {
		return c.Section("phase", func() error {
			if len(openSections(c)) != 2 {
				t.Errorf("depth in helper = %d", len(openSections(c)))
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSectionHelperPropagatesError(t *testing.T) {
	boom := errors.New("body failed")
	_, err := Run(testCfg(1), func(c *Comm) error {
		return c.Section("phase", func() error { return boom })
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestMisnestedExitReported(t *testing.T) {
	cfg := testCfg(1)
	_, err := Run(cfg, func(c *Comm) error {
		c.SectionEnter("a")
		c.SectionExit("b") // wrong label
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "innermost") {
		t.Fatalf("misnesting not reported: %v", err)
	}
}

func TestExitWithoutEnterReported(t *testing.T) {
	_, err := Run(testCfg(1), func(c *Comm) error {
		c.SectionExit(MainSection)  // pops MAIN
		c.SectionExit("ghost")      // nothing left
		c.SectionEnter(MainSection) // restore so Run's exit stays balanced
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "no section open") {
		t.Fatalf("underflow not reported: %v", err)
	}
}

func TestSequenceDivergenceDetected(t *testing.T) {
	cfg := testCfg(2)
	cfg.CheckSections = true
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SectionEnter("compute")
			c.SectionExit("compute")
		} else {
			c.SectionEnter("io")
			c.SectionExit("io")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("divergence not reported: %v", err)
	}
}

func TestSequenceAgreementPasses(t *testing.T) {
	cfg := testCfg(4)
	cfg.CheckSections = true
	_, err := Run(cfg, func(c *Comm) error {
		for i := 0; i < 5; i++ {
			c.SectionEnter("step")
			c.SectionEnter("halo")
			c.SectionExit("halo")
			c.SectionExit("step")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckingOffToleratesDivergence(t *testing.T) {
	cfg := testCfg(2) // CheckSections false
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SectionEnter("only-on-zero")
			c.SectionExit("only-on-zero")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("divergence reported with checking off: %v", err)
	}
}

func TestToolDataRoundtrip(t *testing.T) {
	// A tool stores a stamp on enter and must see it again on leave —
	// the 32-byte data argument of Fig. 2.
	type stampTool struct {
		BaseTool
		mu   sync.Mutex
		seen map[byte]bool
	}
	st := &stampTool{seen: map[byte]bool{}}
	tool := &funcTool{
		enter: func(c *Comm, label string, tm float64, data *ToolData) {
			if label == "stamped" {
				data[0] = byte(c.Rank() + 1)
				data[31] = 0xAB
			}
		},
		leave: func(c *Comm, label string, tm float64, data *ToolData) {
			if label == "stamped" {
				st.mu.Lock()
				defer st.mu.Unlock()
				if data[31] != 0xAB {
					t.Errorf("tool data tail lost: %v", data)
				}
				st.seen[data[0]] = true
			}
		},
	}
	cfg := testCfg(3)
	cfg.Tools = []Tool{tool}
	_, err := Run(cfg, func(c *Comm) error {
		c.SectionEnter("stamped")
		c.Sleep(1)
		c.SectionExit("stamped")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for r := 1; r <= 3; r++ {
		if !st.seen[byte(r)] {
			t.Errorf("stamp from rank %d missing", r-1)
		}
	}
}

// funcTool adapts closures to the Tool interface for tests.
type funcTool struct {
	BaseTool
	enter func(*Comm, string, float64, *ToolData)
	leave func(*Comm, string, float64, *ToolData)
}

func (f *funcTool) SectionEnter(c *Comm, l string, t float64, d *ToolData) {
	if f.enter != nil {
		f.enter(c, l, t, d)
	}
}

func (f *funcTool) SectionLeave(c *Comm, l string, t float64, d *ToolData) {
	if f.leave != nil {
		f.leave(c, l, t, d)
	}
}

func TestToolDataNestedInstancesIndependent(t *testing.T) {
	// Each nested section instance gets its own 32-byte slot.
	var mu sync.Mutex
	got := map[string]byte{}
	tool := &funcTool{
		enter: func(c *Comm, label string, tm float64, data *ToolData) {
			data[0] = label[0]
		},
		leave: func(c *Comm, label string, tm float64, data *ToolData) {
			mu.Lock()
			got[label] = data[0]
			mu.Unlock()
		},
	}
	cfg := testCfg(1)
	cfg.Tools = []Tool{tool}
	_, err := Run(cfg, func(c *Comm) error {
		c.SectionEnter("aaa")
		c.SectionEnter("bbb")
		c.SectionExit("bbb")
		c.SectionExit("aaa")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got["aaa"] != 'a' || got["bbb"] != 'b' {
		t.Errorf("tool data mixed across nested frames: %v", got)
	}
}

func TestMessageHooksFire(t *testing.T) {
	tool := &recordingTool{}
	cfg := testCfg(2)
	cfg.Tools = []Tool{tool}
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []byte("x"))
		}
		_, _, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if tool.sent != 1 || tool.received != 1 {
		t.Errorf("message hooks: sent=%d received=%d", tool.sent, tool.received)
	}
}

func TestCollectiveHooksFire(t *testing.T) {
	tool := &recordingTool{}
	cfg := testCfg(4)
	cfg.Tools = []Tool{tool}
	_, err := Run(cfg, func(c *Comm) error {
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := countWith(tool.colls, "Barrier"); n != 4 {
		t.Errorf("Barrier hook fired %d times, want 4", n)
	}
}

func TestMultipleToolsChained(t *testing.T) {
	a, b := &recordingTool{}, &recordingTool{}
	cfg := testCfg(2)
	cfg.Tools = []Tool{a, b}
	_, err := Run(cfg, func(c *Comm) error {
		c.SectionEnter("s")
		c.SectionExit("s")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if countWith(a.enters, ":s") != 2 || countWith(b.enters, ":s") != 2 {
		t.Errorf("chained tools missed events: %d/%d",
			countWith(a.enters, ":s"), countWith(b.enters, ":s"))
	}
}

func TestSectionsPerCommunicatorIndependent(t *testing.T) {
	cfg := testCfg(4)
	cfg.CheckSections = true
	_, err := Run(cfg, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		// Different labels on different subcomms is legal: the sequence
		// invariant is per communicator.
		label := "even-phase"
		if c.Rank()%2 == 1 {
			label = "odd-phase"
		}
		sub.SectionEnter(label)
		sub.SectionExit(label)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSectionErrorListBounded(t *testing.T) {
	_, err := Run(testCfg(1), func(c *Comm) error {
		for i := 0; i < 1000; i++ {
			c.SectionExit("never-opened")
		}
		return nil
	})
	if err == nil {
		t.Fatal("errors not reported")
	}
	if n := len(strings.Split(err.Error(), "\n")); n > 100 {
		t.Errorf("error list unbounded: %d lines", n)
	}
}
