package mpi

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSendRecvRoundtrip(t *testing.T) {
	w := NewWorld(2)
	var got []float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend([]float64{1, 2, 3}, 1, 42)
		} else {
			buf := make([]float64, 3)
			req := c.Irecv(buf, 0, 42)
			if err := c.Wait(req); err != nil {
				t.Error(err)
			}
			got = buf
		}
	})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("received %v", got)
	}
}

func TestIsendCopiesEagerly(t *testing.T) {
	w := NewWorld(2)
	var got float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			data := []float64{7}
			c.Isend(data, 1, 0)
			data[0] = 99 // must not affect the message
		} else {
			buf := make([]float64, 1)
			c.Wait(c.Irecv(buf, 0, 0))
			got = buf[0]
		}
	})
	if got != 7 {
		t.Fatalf("eager copy violated: got %g", got)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := NewWorld(2)
	var a, b float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend([]float64{1}, 1, 10)
			c.Isend([]float64{2}, 1, 20)
		} else {
			// Receive the second message first.
			b2 := make([]float64, 1)
			c.Wait(c.Irecv(b2, 0, 20))
			a2 := make([]float64, 1)
			c.Wait(c.Irecv(a2, 0, 10))
			a, b = a2[0], b2[0]
		}
	})
	if a != 1 || b != 2 {
		t.Fatalf("tag matching failed: %g %g", a, b)
	}
}

func TestWaitallMixed(t *testing.T) {
	w := NewWorld(2)
	ok := false
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		buf := make([]float64, 4)
		reqs := []*Request{
			c.Irecv(buf, peer, 5),
			c.Isend([]float64{float64(c.Rank()), 1, 2, 3}, peer, 5),
			nil, // Waitall must tolerate nils
		}
		if err := c.Waitall(reqs); err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 && buf[0] == 1 {
			ok = true
		}
	})
	if !ok {
		t.Fatal("exchange failed")
	}
}

func TestSizeMismatchError(t *testing.T) {
	w := NewWorld(2)
	var err error
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend([]float64{1, 2}, 1, 0)
		} else {
			buf := make([]float64, 5)
			err = c.Wait(c.Irecv(buf, 0, 0))
		}
	})
	if err == nil {
		t.Fatal("size mismatch not detected")
	}
}

func TestAllreduceOps(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		want float64
	}{
		{OpSum, 0 + 1 + 2 + 3 + 4 + 5},
		{OpMin, 0},
		{OpMax, 5},
	} {
		w := NewWorld(6)
		results := make([]float64, 6)
		w.Run(func(c *Comm) {
			results[c.Rank()] = c.AllreduceScalar(float64(c.Rank()), tc.op)
		})
		for r, got := range results {
			if got != tc.want {
				t.Fatalf("op %v rank %d: got %g want %g", tc.op, r, got, tc.want)
			}
		}
	}
}

func TestAllreduceRepeated(t *testing.T) {
	// Generation counting must survive many consecutive reductions.
	w := NewWorld(4)
	bad := false
	w.Run(func(c *Comm) {
		for i := 0; i < 200; i++ {
			got := c.AllreduceScalar(float64(i), OpSum)
			if got != float64(4*i) {
				bad = true
			}
		}
	})
	if bad {
		t.Fatal("repeated allreduce corrupted a generation")
	}
}

// Property: Allreduce(sum) equals the serial sum for random vectors.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(vals [5]float64) bool {
		// Bound magnitudes: reduction order is nondeterministic, so the
		// comparison must tolerate rounding (not overflow).
		for i := range vals {
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				vals[i] = 1
			}
			vals[i] = math.Remainder(vals[i], 1000)
		}
		w := NewWorld(5)
		var out [5]float64
		w.Run(func(c *Comm) {
			out[c.Rank()] = c.AllreduceScalar(vals[c.Rank()], OpSum)
		})
		want := 0.0
		for _, v := range vals {
			want += v
		}
		for _, o := range out {
			if math.Abs(o-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAllreduceVector(t *testing.T) {
	w := NewWorld(3)
	var got []float64
	w.Run(func(c *Comm) {
		r := c.Allreduce([]float64{float64(c.Rank()), 1}, OpSum)
		if c.Rank() == 0 {
			got = r
		}
	})
	if got[0] != 3 || got[1] != 3 {
		t.Fatalf("vector allreduce = %v", got)
	}
}

func TestSingleRankCollectives(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		if got := c.AllreduceScalar(3, OpSum); got != 3 {
			t.Errorf("1-rank allreduce = %g", got)
		}
	})
}
