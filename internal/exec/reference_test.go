package exec

import (
	"fmt"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/codegen"
	"riotshare/internal/disk"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// This file keeps the paper's §5.5 sequential interpreter as a test
// oracle: it walks the timeline in order, reads and writes blocks straight
// through storage under each access's action, keeps held blocks in a
// string-keyed buffer, and measures logical I/O and peak memory as it
// goes. The property tests check that the engine's outputs are
// bit-identical to it and that its measured accounting equals the cost
// model's prediction, which the engine reports.

// referenceRun executes the timeline sequentially on store.
func referenceRun(store storage.Backend, model disk.Model, tl *codegen.Timeline) (Result, error) {
	var res Result
	p := tl.Prog

	// holdEnd[blockKey] = latest event index through which the block must
	// stay buffered (merged over the plan's hold intervals), indexed as the
	// execution reaches each hold's start.
	holdsByStart := make(map[int][]codegen.Hold)
	for _, h := range tl.Holds {
		holdsByStart[h.StartEvent] = append(holdsByStart[h.StartEvent], h)
	}
	holdEnd := make(map[string]int)
	type buffered struct {
		blk   *blas.Matrix
		bytes int64
	}
	buf := make(map[string]buffered)
	bufBytes := int64(0)

	for i, ev := range tl.Events {
		st := ev.St
		actions := tl.Actions[i]
		// Activate holds starting here (they may refer to blocks acquired at
		// this very event).
		for _, h := range holdsByStart[i] {
			key := codegen.BlockKey(h.Array, h.R, h.C)
			if h.EndEvent > holdEnd[key] {
				holdEnd[key] = h.EndEvent
			}
		}

		// Acquire all input blocks plus the write target.
		local := make(map[string]*blas.Matrix) // blocks live for this event
		localBytes := int64(0)
		var kernelIn []*blas.Matrix
		var outBlk, accRead *blas.Matrix
		var writeAcc *prog.Access
		var writeAction codegen.AccessAction

		for ai := range st.Accesses {
			ac := &st.Accesses[ai]
			action := actions[ai]
			if action == codegen.Inactive {
				continue
			}
			arr := p.Arrays[ac.Array]
			r, c := ac.BlockAt(ev.X, tl.Params)
			key := codegen.BlockKey(ac.Array, r, c)

			if ac.Type == prog.Read {
				blk, held := buf[key]
				var m *blas.Matrix
				switch action {
				case codegen.FromMemory:
					switch lm, ok := local[key]; {
					case held:
						m = blk.blk
					case ok:
						m = lm
					default:
						return res, fmt.Errorf("reference: %s%v expects %s in memory but it is not buffered",
							st.Name, ev.X, key)
					}
				case codegen.DoIO:
					var err error
					if m, err = store.ReadBlock(ac.Array, r, c); err != nil {
						return res, err
					}
					res.ReadBytes += arr.LogicalBlockBytes
					res.ReadReqs++
				}
				if _, dup := local[key]; !dup {
					local[key] = m
					if !held {
						localBytes += arr.LogicalBlockBytes
					}
				}
				if isAccumulatorRead(st, ai) {
					accRead = m
				} else {
					kernelIn = append(kernelIn, m)
				}
				continue
			}
			// Write access: the output block materializes in memory.
			writeAcc, writeAction = ac, action
			if b, held := buf[key]; held {
				outBlk = b.blk
			} else {
				outBlk = blas.NewMatrix(arr.BlockRows, arr.BlockCols)
				if _, dup := local[key]; !dup {
					localBytes += arr.LogicalBlockBytes
				}
			}
			local[key] = outBlk
		}
		res.PeakMemoryBytes = max(res.PeakMemoryBytes, bufBytes+localBytes)

		t0 := time.Now()
		if err := RunKernel(st, kernelIn, accRead, outBlk); err != nil {
			return res, fmt.Errorf("reference: %s%v: %w", st.Name, ev.X, err)
		}
		kd := time.Since(t0)
		res.CPUTime += kd
		res.addStageTime(st.Name, kd)

		if writeAcc != nil && writeAction == codegen.DoIO {
			arr := p.Arrays[writeAcc.Array]
			r, c := writeAcc.BlockAt(ev.X, tl.Params)
			if err := store.WriteBlock(writeAcc.Array, r, c, outBlk); err != nil {
				return res, err
			}
			res.WriteBytes += arr.LogicalBlockBytes
			res.WriteReqs++
		}

		// Retain blocks with active holds; expire holds ending here.
		for key, m := range local {
			if end, heldNow := holdEnd[key]; heldNow && end > i {
				b, already := buf[key]
				if !already {
					b.bytes = keyLogicalBytes(p, key)
					bufBytes += b.bytes
				}
				b.blk = m
				buf[key] = b
			}
		}
		for key, end := range holdEnd {
			if end <= i {
				if b, ok := buf[key]; ok {
					bufBytes -= b.bytes
					delete(buf, key)
				}
				delete(holdEnd, key)
			}
		}
	}
	res.SimulatedIOSec = model.Time(res.ReadBytes, res.WriteBytes, res.ReadReqs, res.WriteReqs)
	return res, nil
}

// keyLogicalBytes resolves a block key's logical byte size via its array
// name prefix (the key embeds the array name before '[').
func keyLogicalBytes(p *prog.Program, key string) int64 {
	for name, arr := range p.Arrays {
		if len(key) > len(name) && key[:len(name)] == name && key[len(name)] == '[' {
			return arr.LogicalBlockBytes
		}
	}
	panic("reference: no array for block " + key)
}
