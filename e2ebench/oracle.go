package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"riotshare/internal/blockproto"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/exec"
	"riotshare/internal/prog"
	"riotshare/internal/server"
	"riotshare/internal/storage"
)

// reference is the expected answer of one program: each persistent
// output's element sum, from a run of the reference plan on the
// sequential engine over a private store.
type reference struct {
	label string
	sums  map[string]float64
	// res is the reference planning result; store holds the program's
	// inputs, filled exactly as the server fills them.
	res   *core.Result
	store *storage.Manager
}

// plan optimizes p the way the server's planner tiers do, minus the
// background improver: the paper's selected plans when restricted,
// otherwise the greedy search with no deadline.
func plan(p *prog.Program, subsets [][]string) (*core.Result, error) {
	opt := core.Options{BindParams: true}
	if subsets != nil {
		return core.OptimizeSubsetsCtx(context.Background(), p, opt, subsets)
	}
	return core.OptimizeGreedy(context.Background(), p, opt)
}

// newReference plans p and runs its first plan (the one the server picks
// without a memory cap) against a fresh local store under dir.
func newReference(p *prog.Program, subsets [][]string, seed int64, dir string) (*reference, error) {
	res, err := plan(p, subsets)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", p.Name, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := storage.NewManager(dir, 0)
	if err != nil {
		return nil, err
	}
	ref := &reference{label: res.Plans[0].Label, sums: map[string]float64{}, res: res, store: store}
	for name := range writtenArrays(p) {
		if err := store.Create(p.Arrays[name]); err != nil {
			store.Close()
			return nil, err
		}
	}
	if err := fillInputs(store, p, seed, map[string]bool{}); err != nil {
		store.Close()
		return nil, err
	}
	eng := &exec.Engine{Store: store, Model: disk.PaperModel()}
	if _, err := eng.Run(res.Plans[0].Timeline); err != nil {
		store.Close()
		return nil, fmt.Errorf("reference run %s: %w", p.Name, err)
	}
	for _, name := range outputArrays(p) {
		sum, err := arraySum(store, p.Arrays[name], name)
		if err != nil {
			store.Close()
			return nil, err
		}
		ref.sums[name] = sum
	}
	return ref, nil
}

// arraySum sums a stored array in the server's order: row-major blocks,
// row-major elements within a block.
func arraySum(m storage.Backend, a *prog.Array, phys string) (float64, error) {
	sum := 0.0
	for br := 0; br < a.GridRows; br++ {
		for bc := 0; bc < a.GridCols; bc++ {
			blk, err := m.ReadBlock(phys, int64(br), int64(bc))
			if err != nil {
				return 0, err
			}
			for _, x := range blk.Data {
				sum += x
			}
		}
	}
	return sum, nil
}

// fillInputs creates and fills the program's inputs as the server does,
// skipping those already filled.
func fillInputs(st storage.Backend, p *prog.Program, seed int64, filled map[string]bool) error {
	written := writtenArrays(p)
	for _, name := range sortedArrays(p) {
		if written[name] || filled[name] {
			continue
		}
		filled[name] = true
		a := p.Arrays[name]
		if err := st.Create(a); err != nil {
			return err
		}
		if err := server.FillInput(st, a, seed); err != nil {
			return err
		}
	}
	return nil
}

func sortedArrays(p *prog.Program) []string {
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func writtenArrays(p *prog.Program) map[string]bool {
	w := map[string]bool{}
	for _, st := range p.Stmts {
		if a := st.WriteAccess(); a != nil {
			w[a.Array] = true
		}
	}
	return w
}

// outputArrays are the persistent written arrays, sorted: the ones the
// server summarizes and streams.
func outputArrays(p *prog.Program) []string {
	written := writtenArrays(p)
	var out []string
	for _, name := range sortedArrays(p) {
		if written[name] && !p.Arrays[name].Transient {
			out = append(out, name)
		}
	}
	return out
}

// sameSum is the oracle's comparison: bit-identical when the served plan
// is the reference plan, within 1e-9 relative otherwise (a different plan
// may sum its kernels' products in another order).
func sameSum(got, want float64, samePlan bool) bool {
	if samePlan {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1e-300)
}

// checkStatus verifies a finished query's JSON summary.
func (ref *reference) checkStatus(st server.QueryStatus) error {
	if st.State != server.StateDone {
		return fmt.Errorf("query %s %s: %s", st.ID, st.State, st.Err)
	}
	if len(st.Outputs) != len(ref.sums) {
		return fmt.Errorf("query %s: %d outputs, want %d", st.ID, len(st.Outputs), len(ref.sums))
	}
	for _, o := range st.Outputs {
		want, ok := ref.sums[o.Array]
		if !ok {
			return fmt.Errorf("query %s: unexpected output %s", st.ID, o.Array)
		}
		if !sameSum(o.Sum, want, st.PlanLabel == ref.label) {
			return fmt.Errorf("query %s: %s sums to %v, want %v (plan %s, reference %s)", st.ID, o.Array, o.Sum, want, st.PlanLabel, ref.label)
		}
	}
	return nil
}

// streamSums decodes a binary result stream (docs/streaming.md) and returns
// each array's running sum in arrival order, which is the server's
// summation order.
func streamSums(r io.Reader) (map[string]float64, error) {
	sums := map[string]float64{}
	blocks := 0
	for {
		_, kind, payload, err := blockproto.ReadFrame(r)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		d := blockproto.NewDec(payload)
		switch kind {
		case server.StreamFrameArray:
			sums[d.Str()] = 0
		case server.StreamFrameBlock:
			name := d.Str()
			d.I64()
			d.I64()
			rows, cols := d.U32(), d.U32()
			data := d.Blob()
			if d.Err() != nil || len(data) != int(rows*cols)*8 {
				return nil, fmt.Errorf("stream: malformed block frame")
			}
			s := sums[name]
			for i := 0; i < len(data); i += 8 {
				s += math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			}
			sums[name] = s
			blocks++
		case server.StreamFrameEnd:
			d.U32()
			if n := d.U32(); d.Err() != nil || int(n) != blocks {
				return nil, fmt.Errorf("stream: end frame counts %d blocks, received %d", n, blocks)
			}
			return sums, nil
		case server.StreamFrameError:
			return nil, fmt.Errorf("stream: server error: %s", d.Str())
		default:
			return nil, fmt.Errorf("stream: unknown frame kind %#x", kind)
		}
	}
}

// checkStream verifies the running sums of a streamed result.
func (ref *reference) checkStream(sums map[string]float64, planLabel string) error {
	if len(sums) != len(ref.sums) {
		return fmt.Errorf("stream: %d arrays, want %d", len(sums), len(ref.sums))
	}
	for name, want := range ref.sums {
		got, ok := sums[name]
		if !ok {
			return fmt.Errorf("stream: missing array %s", name)
		}
		if !sameSum(got, want, planLabel == ref.label) {
			return fmt.Errorf("stream: %s sums to %v, want %v (plan %s, reference %s)", name, got, want, planLabel, ref.label)
		}
	}
	return nil
}
