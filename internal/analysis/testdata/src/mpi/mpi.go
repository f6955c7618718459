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
func (c *Comm) Allreduce(v float64) (float64, error)        { return v, nil }
func (c *Comm) Gather(root int, b []byte) ([][]byte, error) { return nil, nil }

// GhostExchange is one op of an ExchangeGhost list.
type GhostExchange struct{ Peer, SendTag, NBytes, VBytes, RecvTag int }

func (c *Comm) ExchangeGhost(ops []GhostExchange) error { return nil }

func (c *Comm) ScatterGhost(root, tag int, fanOut func(i int) (dst, nbytes, vbytes int)) error {
	return nil
}
func (c *Comm) GatherGhost(root, tag, nbytes, vbytes int) error { return nil }

func (c *Comm) Send(dst, tag int, b []byte) error { return nil }
func (c *Comm) Recv(src, tag int) ([]byte, error) { return nil, nil }

// Status is the stub receive status.
type Status struct{}

func (c *Comm) SendrecvSized(dst, sendTag int, b []byte, vbytes, src, recvTag int) ([]byte, Status, error) {
	return b, Status{}, nil
}
func (c *Comm) SendrecvFloat64s(dst, sendTag int, xs []float64, src, recvTag int) ([]float64, Status, error) {
	return xs, Status{}, nil
}

// BytesToFloat64s decodes a payload.
func BytesToFloat64s(b []byte) ([]float64, error) { return nil, nil }

// Config and Report are the stub world's configuration and result.
type Config struct{ Ranks int }
type Report struct{}

// Run runs fn on every rank of a world.
func Run(cfg Config, fn func(*Comm) error) (*Report, error) { return nil, fn(&Comm{}) }

// Release returns a payload buffer to the runtime's pool.
func Release(b []byte) {}
