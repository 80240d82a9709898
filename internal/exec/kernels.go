package exec

import (
	"fmt"
	"strings"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
)

// RunKernel dispatches a statement's in-core computation. in holds the
// active read operands in access order (excluding the accumulator
// self-read), accRead the accumulator's prior value (nil at the first
// accumulation step or when the statement does not accumulate), and dst the
// output block. Accumulating kernels continue from accRead; others
// recompute dst from scratch.
func RunKernel(st *prog.Statement, in []*blas.Matrix, accRead, dst *blas.Matrix) error {
	if st.Kernel == "" {
		return nil // analysis-only statement: I/O pattern without compute
	}
	if dst == nil {
		return fmt.Errorf("kernel %q without write target", st.Kernel)
	}
	prepAccum := func() {
		switch {
		case accRead == nil:
			dst.Zero()
		case accRead != dst:
			copy(dst.Data, accRead.Data)
		}
	}
	name, flags, more := strings.Cut(st.Kernel, ":")
	switch name {
	case "add":
		if len(in) != 2 {
			return fmt.Errorf("add wants 2 operands, got %d", len(in))
		}
		blas.Add(dst, in[0], in[1])
	case "sub":
		if len(in) != 2 {
			return fmt.Errorf("sub wants 2 operands, got %d", len(in))
		}
		blas.Sub(dst, in[0], in[1])
	case "gemm":
		ta, tb, self := false, false, false
		for more {
			var f string
			f, flags, more = strings.Cut(flags, ":")
			switch f {
			case "ta":
				ta = true
			case "tb":
				tb = true
			case "self":
				self = true
			default:
				return fmt.Errorf("unknown gemm flag %q", f)
			}
		}
		var a, b *blas.Matrix
		if self {
			if len(in) != 1 {
				return fmt.Errorf("gemm:self wants 1 operand, got %d", len(in))
			}
			a, b = in[0], in[0]
		} else {
			if len(in) != 2 {
				return fmt.Errorf("gemm wants 2 operands, got %d", len(in))
			}
			a, b = in[0], in[1]
		}
		prepAccum()
		blas.Gemm(dst, a, ta, b, tb)
	case "inv":
		if len(in) != 1 {
			return fmt.Errorf("inv wants 1 operand, got %d", len(in))
		}
		return blas.Inverse(dst, in[0])
	case "rss":
		if len(in) != 1 {
			return fmt.Errorf("rss wants 1 operand, got %d", len(in))
		}
		prepAccum()
		blas.RSS(dst, in[0])
	case "scan-agg":
		if len(in) != 1 {
			return fmt.Errorf("scan-agg wants 1 operand, got %d", len(in))
		}
		prepAccum()
		var s float64
		for _, v := range in[0].Data {
			s += v
		}
		dst.Data[0] += s
	case "join-agg":
		if len(in) != 2 {
			return fmt.Errorf("join-agg wants 2 operands, got %d", len(in))
		}
		prepAccum()
		// Count equi-matches between the operands' first columns (a simple
		// block nested-loop join aggregate).
		var matches float64
		for i := 0; i < in[0].Rows; i++ {
			for j := 0; j < in[1].Rows; j++ {
				if in[0].At(i, 0) == in[1].At(j, 0) {
					matches++
				}
			}
		}
		dst.Data[0] += matches
	default:
		return fmt.Errorf("unknown kernel %q", st.Kernel)
	}
	return nil
}
