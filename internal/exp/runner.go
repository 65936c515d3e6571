package exp

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the parallel experiment fan-out every campaign runner
// (matrix, coexistence, sweeps, ablations) is built on. The paper's
// evaluation is a grid of independent simulations: each cell owns its own
// RNG, collector and flow arena, and each worker goroutine its own fabric
// (engine, topology, packet pool), so cells are embarrassingly parallel.
// The runner exploits exactly that — and nothing more: inside a cell the
// simulator stays strictly single-threaded.
//
// Determinism contract: results land in a slice indexed by cell, and the
// progress callback fires on the calling goroutine in strict index order
// regardless of which worker finishes first. A campaign run with jobs=N
// therefore renders byte-identical output to jobs=1
// (TestMatrixParallelDeterministic pins this).

// DefaultJobs resolves a jobs knob: values <= 0 mean "one worker per
// available CPU".
func DefaultJobs(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// RunAll executes run(i) for i in [0, n) across up to jobs workers and
// returns the results in index order. done, if non-nil, is invoked as
// (i, result) in strict index order on the calling goroutine — it is the
// serialization point for progress output, so campaign logs stay
// deterministic under any worker count. jobs <= 0 selects GOMAXPROCS;
// jobs == 1 runs inline with no goroutines (bit-identical to the historic
// serial loops, useful under -race to isolate engine bugs from fan-out
// bugs).
//
// run must be self-contained per index: own RNG, no shared mutable state
// but the Worker it is handed, which is its goroutine's alone and holds
// the fabric NewCell recycles from one cell to the next (cell.go).
//
// RunAll and RunShard (shard.go) share this pool: RunAll is the
// whole-cell-space case, RunShard the subset a -shard spec owns.
func RunAll[T any](n, jobs int, run func(w *Worker, i int) T, done func(i int, r T)) []T {
	results := make([]T, n)
	if n == 0 {
		return results
	}
	jobs = DefaultJobs(jobs)
	if jobs > n {
		jobs = n
	}
	if jobs == 1 {
		w := new(Worker)
		for i := range results {
			results[i] = run(w, i)
			w.lent = false
			if done != nil {
				done(i, results[i])
			}
		}
		return results
	}

	// ready[i] closes when results[i] is filled; the caller drains them in
	// order below, so progress emission never races or reorders.
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := new(Worker)
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				results[i] = run(w, i)
				w.lent = false
				close(ready[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-ready[i]
		if done != nil {
			done(i, results[i])
		}
	}
	wg.Wait()
	return results
}

// gridRC recovers the (row, col) of an index flattened row-major over a
// grid with the given column count — campaigns over two axes use it to
// keep the historic nested-loop cell order.
func gridRC(i, cols int) (row, col int) { return i / cols, i % cols }

// gridAxes reads the axes of n cells laid out as gridRC lays them out —
// cell i is (rows[i/len(cols)], cols[i%len(cols)]) — off the cells' own
// keys: the columns are the keys of the first row, which ends where the
// row key first changes. A set that is not such a grid of distinct rows and
// columns is refused with an error naming the first cell out of place.
func gridAxes[R, C comparable](n int, key func(i int) (R, C)) (rows []R, cols []C, err error) {
	if n == 0 {
		return nil, nil, fmt.Errorf("no cells")
	}
	r0, _ := key(0)
	for i := 0; i < n; i++ {
		r, c := key(i)
		if r != r0 || slices.Contains(cols, c) {
			break
		}
		cols = append(cols, c)
	}
	for i := 0; i < n; i++ {
		r, c := key(i)
		if i%len(cols) == 0 {
			if slices.Contains(rows, r) {
				return nil, nil, fmt.Errorf("cell %d starts row %v a second time", i, r)
			}
			rows = append(rows, r)
		}
		if wr, wc := rows[len(rows)-1], cols[i%len(cols)]; r != wr || c != wc {
			return nil, nil, fmt.Errorf("cell %d is %v/%v where the grid expects %v/%v", i, r, c, wr, wc)
		}
	}
	if n%len(cols) != 0 {
		return nil, nil, fmt.Errorf("cell %d ends a row of %d where the grid has %d columns", n-1, n%len(cols), len(cols))
	}
	return rows, cols, nil
}
