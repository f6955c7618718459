// Package mpi is a minimal stand-in for the real runtime, carrying just
// enough surface for the fixture packages to type-check. The passes match
// entry points by package name, so this stub exercises them exactly as the
// real package does.
package mpi

import "errors"

// ErrRevoked mirrors the runtime's revoked-communicator sentinel.
var ErrRevoked = errors.New("mpi: communicator revoked")

// Comm is the stub communicator.
type Comm struct{}

func (c *Comm) Rank() int { return 0 }
func (c *Comm) Size() int { return 1 }

func (c *Comm) SectionEnter(label string) {}
func (c *Comm) SectionExit(label string)  {}
func (c *Comm) Section(label string, body func() error) error {
	c.SectionEnter(label)
	defer c.SectionExit(label)
	return body()
}

func (c *Comm) Barrier() error                              { return nil }
func (c *Comm) Bcast(root int, b []byte) ([]byte, error)    { return b, nil }
func (c *Comm) Reduce(root int, v float64) (float64, error) { return v, nil }
func (c *Comm) Allreduce(v float64) (float64, error)        { return v, nil }
func (c *Comm) Agree(flag bool) (bool, error)               { return flag, nil }
func (c *Comm) Gather(root int, b []byte) ([][]byte, error) { return nil, nil }

// GhostExchange is one op of an ExchangeGhost list.
type GhostExchange struct{ Peer, SendTag, NBytes, VBytes, RecvTag int }

func (c *Comm) ExchangeGhost(ops []GhostExchange) error { return nil }

func (c *Comm) ScatterGhost(root, tag int, dsts, nbytes, vbytes []int) error { return nil }
func (c *Comm) GatherGhost(root, tag, nbytes, vbytes int) error              { return nil }

func (c *Comm) Send(dst, tag int, b []byte) error { return nil }
func (c *Comm) Recv(src, tag int) ([]byte, error) { return nil, nil }

// Release returns a payload buffer to the runtime's pool.
func Release(b []byte) {}
