package useafterrelease

import "mpi"

// The mutants only this pass catches (EXPERIMENTS.md, "What each seclint
// pass catches"): a read of the buffer after its Release returns what the
// pool has not handed out yet, so every test passes.

// internal/convolution: the root's gather loop.
func gatherRows(c *mpi.Comm, ranks int, out []float64) error {
	for r := 1; r < ranks; r++ {
		raw, err := c.Recv(r, 300)
		if err != nil {
			return err
		}
		rows, err := mpi.BytesToFloat64s(raw)
		if err != nil {
			return err
		}
		mpi.Release(raw)
		if len(raw) > 0 { // want `use of raw after mpi.Release`
			_ = raw[0]
		}
		copy(out, rows)
	}
	return nil
}

// internal/convolution/halo2d.go: one edge exchange, four times over.
func haloEdge(c *mpi.Comm, peer int, edge, ext []float64) error {
	got, _, err := c.SendrecvSized(peer, 1, nil, 8*len(edge), peer, 2)
	if err != nil {
		return err
	}
	row, err := mpi.BytesToFloat64s(got)
	if err != nil {
		return err
	}
	mpi.Release(got)
	if len(got) > 0 { // want `use of got after mpi.Release`
		_ = got[0]
	}
	copy(ext, row)
	return nil
}

// internal/convolution/halo2d.go: the diagonal corners, in a loop.
func haloCorners(c *mpi.Comm, peers []int, ext []float64) error {
	for i, diag := range peers {
		got, _, err := c.SendrecvSized(diag, 10+i, nil, 8, diag, 20+i)
		if err != nil {
			return err
		}
		px, err := mpi.BytesToFloat64s(got)
		if err != nil {
			return err
		}
		mpi.Release(got)
		if len(got) > 0 { // want `use of got after mpi.Release`
			_ = got[0]
		}
		ext[i] = px[0]
	}
	return nil
}
