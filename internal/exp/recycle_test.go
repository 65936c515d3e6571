package exp

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"xmp/internal/chaos"
	"xmp/internal/mptcp"
	"xmp/internal/netem"
	"xmp/internal/sim"
	"xmp/internal/topo"
	"xmp/internal/workload"
)

// This file is the fence around fabric and arena recycling (ROADMAP item
// 5's cell differential): whatever cells a worker ran before, a cell on its
// recycled fabric and rewound flow arena must be the cell on a fresh build
// — the same encoded payload, the same fabric state at the end of the run,
// counter for counter, and the same arena counts.

// recycleCell is one cell of the differential: a name, the fabric group it
// shares a key with (named for the key), and the real reducer on a worker.
type recycleCell struct {
	name, group string
	run         func(w *Worker) any
	// recycles marks a cell whose generator launches flows as others
	// complete, so its flow arena must recycle inside the cell.
	recycles bool
}

// mustSchedule reads a chaos schedule from a JSON file, from the object
// under key when key is non-empty.
func mustSchedule(t *testing.T, path, key string) chaos.Schedule {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		data = doc[key]
	}
	s, err := chaos.ParseSchedule(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// recycleCells is the heterogeneous cell set: every scheme row of mptcp's
// algorithm table over the three matrix patterns, the short-flow and
// incast-burst generators, a flapping link, the robustness fault schedule
// extended so that a loss probability stays armed when the run ends and
// followed by a link left down and extra delay left set, SACK, RED-strict
// switches, queue limits 50 and 100, VL2, the sweep rows, and two cells
// sharing one run.
func recycleCells(t *testing.T) []recycleCell {
	const dur = 10 * sim.Millisecond
	var cells []recycleCell
	add := func(group, name string, run func(w *Worker) any) {
		cells = append(cells, recycleCell{name: name, group: group, run: run})
	}

	patterns := []Pattern{Permutation, Random, Incast}
	for a := mptcp.Algorithm(0); a.String() != "unknown"; a++ {
		scheme := workload.Scheme{Algorithm: a, Subflows: 1}
		if a.Multipath() {
			scheme.Subflows = 2 + int(a)%3
		}
		cfg := CellConfig{K: 4, Duration: dur, SizeScale: 256, Seed: 1 + int64(a)}
		pattern := patterns[int(a)%len(patterns)]
		add("k4", "matrix/"+string(pattern)+"/"+scheme.Label(), func(w *Worker) any { return RunFatTree(w, cfg, Row{Pattern: pattern}, scheme) })
	}

	flap := mustSchedule(t, "../../scenarios/permutation-flap.json", "chaos")
	for i := range flap.Events { // the spec's times are for a 50 ms run
		flap.Events[i].At /= 5
		flap.Events[i].Dur /= 5
	}
	add("k4", "matrix/flap", func(w *Worker) any {
		return RunFatTree(w, CellConfig{K: 4, Duration: dur, SizeScale: 256, Chaos: &flap}, Row{Pattern: Permutation}, SchemeXMP4)
	})

	k4 := CellConfig{K: 4, Duration: dur}
	short := &workload.ShortFlowsConfig{Alpha: 1.1, MeanBytes: 48 << 10, MinBytes: 1 << 10, MaxBytes: 2 << 20, PerHost: 2}
	add("k4", "fct/shortflows", func(w *Worker) any {
		return runFCTCell(w, FCTCellConfig{Cell: k4, Short: short})
	})
	// 24 senders of 4 KB fit the client port's 100-packet buffer, so a
	// round ends without a 200 ms timeout and the next starts in the cell.
	add("k4", "fct/incast-burst", func(w *Worker) any {
		return runFCTCell(w, FCTCellConfig{Cell: k4, Scheme: SchemeXMP2,
			Incast: &workload.IncastBurstConfig{Senders: 24, ResponseBytes: 4 << 10, Rounds: 3, UseScheme: true}})
	})
	sackCfg := k4
	sackCfg.SACK = true
	add("k4", "sack", func(w *Worker) any {
		c := NewCell(w, sackCfg, SchemeLIA2)
		workload.StartRandom(randomCfg(c.Base, 256))
		c.Run()
		return c.Base.Collector
	})

	// The fault schedule the robustness campaign and chaos-k8 run, then two
	// loss bursts whose arming outlives the traffic: the second restores the
	// first's probability after the first has restored zero.
	faults := mustSchedule(t, "../../bench/workloads/robustness.chaos.json", "")
	for i := range faults.Events { // written for a 40 ms run
		faults.Events[i].At /= 4
		faults.Events[i].Dur /= 4
		faults.Events[i].Period /= 4
	}
	faults.Events = append(faults.Events,
		chaos.Event{At: 1500 * sim.Microsecond, Kind: chaos.LossBurst, Target: "edge1.0->agg1.0", Dur: 500 * sim.Microsecond, P: 0.03},
		chaos.Event{At: 1800 * sim.Microsecond, Kind: chaos.LossBurst, Target: "edge1.0->agg1.0", Dur: sim.Millisecond, P: 0.05},
	)
	lossy := CellConfig{K: 4, Duration: dur, Lossy: true, Chaos: &faults}
	for i, scheme := range []workload.Scheme{SchemeXMP2, SchemeTCP, {Algorithm: mptcp.AlgOLIA, Subflows: 2}, {Algorithm: mptcp.AlgAMP, Subflows: 2}} {
		cfg := lossy
		cfg.Seed = int64(1 + i%2) // two cells share a seed: the loss stream must restart, not continue
		add("k4-lossy", "robustness/"+scheme.Label(), func(w *Worker) any {
			res := runChaosCell(w, ChaosCellConfig{
				Cell:   cfg,
				Scheme: scheme,
				Random: &workload.RandomConfig{ParetoMeanBytes: 256 << 10, ParetoMaxBytes: 1 << 20, MaxFlowsPerDst: 4},
				Short:  short,
			})
			// Every fault heals by its own dur, so the fault state the next
			// cell's Reset must clear is put on the drained fabric here.
			for _, li := range w.net.Links() {
				switch li.Name {
				case "agg0.1->core1.0":
					li.SetDown(true)
				case "edge2.1->agg2.1":
					li.SetExtraDelay(70 * sim.Microsecond)
				}
			}
			return res
		})
	}

	coexistCfg := CellConfig{K: 4, Duration: dur, SizeScale: 256}
	for _, strict := range []bool{false, true} {
		for _, q := range []int{50, 100} {
			row := Row{Pattern: Random, QueueLimit: q, StrictNonECT: strict, Coexist: "XMP-2"}
			for _, other := range []workload.Scheme{SchemeTCP, SchemeLIA2} {
				group := fmt.Sprintf("k4-q%d-strict=%v", q, strict)
				if q == 100 && !strict {
					group = "k4" // the default fabric
				}
				add(group, fmt.Sprintf("table2/q%d/strict=%v/%s", q, strict, other.Label()),
					func(w *Worker) any { return RunFatTree(w, coexistCfg, row, other) })
			}
		}
	}
	// A coexist cell as the table2 campaign runs it, which hands its
	// collector back for the next cell on the worker to rewind.
	handBack := MatrixPlan(`scenario {"metrics":["table1","fig8","fig10","fig11","table2"]}`, coexistCfg,
		[]Row{{Pattern: Random, QueueLimit: 50, Coexist: "XMP-2"}}, []workload.Scheme{SchemeDCTCP})
	add("k4-q50-strict=false", "table2/q50/DCTCP/hand-back", func(w *Worker) any { return handBack.Run(w, 0) })

	// The sweep rows at 10 ms: three cells of the vl2 spec on its Clos, and
	// on the default fabric at k=4 the params spec's K=10, beta=4 cell, the
	// incastsweep fan-ins 4 and 8 and the sack spec's TCP row pair. That
	// pair runs as two cells in one run(i), as no campaign does: the second
	// finds the worker lent and builds a fabric and arena of its own.
	for i, scheme := range five[:3] {
		add("vl2", fmt.Sprintf("vl2/%d", i), func(w *Worker) any {
			return RunFatTree(w, CellConfig{VL2: true, Duration: dur}, Row{Pattern: Random}, scheme)
		})
	}
	k4sweep := CellConfig{K: 4, Duration: dur}
	add("k4", "params/K=10/b4", func(w *Worker) any {
		return RunFatTree(w, CellConfig{K: 4, Duration: dur, SizeScale: 256}, Row{Pattern: Random, MarkThreshold: 10},
			workload.Scheme{Algorithm: mptcp.AlgXMP, Subflows: 2, Beta: 4})
	})
	for _, servers := range []int{4, 8} {
		add("k4", fmt.Sprintf("incastsweep/%d", servers), func(w *Worker) any {
			return RunFatTree(w, k4sweep, Row{Pattern: Incast, Servers: servers}, SchemeXMP2)
		})
	}
	add("k4", "sack/TCP", func(w *Worker) any {
		plain := RunFatTree(w, k4sweep, Row{Pattern: Random}, SchemeTCP)
		return []*FatTreeResult{plain, RunFatTree(w, k4sweep, Row{Pattern: Random, SACK: true}, SchemeTCP)}
	})
	for i := range cells {
		// Random, Incast, the short-flow loops and the incast burst's
		// rounds relaunch as flows complete; Permutation, the table2
		// coexistence pairs and VL2's cells run long flows that a 10 ms
		// cell seldom completes.
		name := cells[i].name
		cells[i].recycles = name == "sack" || slices.ContainsFunc(
			[]string{"matrix/Random/", "matrix/Incast/", "fct/", "robustness/", "params/", "incastsweep/"},
			func(p string) bool { return strings.HasPrefix(name, p) })
	}
	return cells
}

// fabricDigest renders everything a finished cell left on its fabric that
// a payload may never show: the clock and event count, the next connection
// id, every link's counters, fault state and queue statistics. (Every
// host's misdelivery count is zero, or Cell.Run would have panicked.)
func fabricDigest(n *topo.Network) string {
	var b strings.Builder
	now := n.Eng.Now()
	fmt.Fprintf(&b, "now=%d processed=%d pending=%d nextconn=%d\n", now, n.Eng.Processed(), n.Eng.Pending(), n.NextConnID())
	for _, li := range n.Links() {
		fmt.Fprintf(&b, "%s tx=%d/%d util=%v down=%v extra=%d queue=%+v", li.Name, li.TxBytes(), li.TxPackets(),
			li.Utilization(now), li.Down(), li.ExtraDelay(), li.Queue().Stats())
		if q, ok := li.Queue().(*netem.Lossy); ok {
			fmt.Fprintf(&b, " p=%v injected=%d", q.P(), q.Injected())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// arenaDigest renders a finished cell's flow-arena counts.
func arenaDigest(a *mptcp.Arena) string {
	return fmt.Sprintf("fresh=%d recycled=%d quarantined=%d", a.Fresh(), a.Recycled(), a.Quarantined())
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRecycledCellsMatchFresh runs the cell set in shuffled orders on
// recycled fabrics and rewound arenas — one test-owned worker, then RunAll
// at jobs 1 and 4 — and demands every cell's payload, end-of-run fabric
// state and arena counts equal those of the same cell on a fresh build.
// The second order's worker poisons released flows (mptcp.Arena.Poison),
// so a rewind that left a poisoned flow reachable would show.
func TestRecycledCellsMatchFresh(t *testing.T) {
	cells := recycleCells(t)
	type outcome struct{ payload, fabric, arena string }
	fresh := make([]outcome, len(cells))
	for i, c := range cells {
		w := new(Worker)
		fresh[i] = outcome{mustJSON(t, c.run(w)), fabricDigest(w.net), arenaDigest(w.arena)}
		if c.recycles && w.arena.Recycled() == 0 {
			t.Errorf("%s: no flow recycled in the cell (%s), so its arena rewind is not under test", c.name, fresh[i].arena)
		}
	}
	check := func(how string, i int, got outcome) {
		t.Helper()
		if got.payload != fresh[i].payload {
			t.Errorf("%s: %s: payload differs from the fresh build's\nfresh:    %.300s\nrecycled: %.300s", how, cells[i].name, fresh[i].payload, got.payload)
		}
		if got.fabric != fresh[i].fabric {
			t.Errorf("%s: %s: fabric state after the run differs from the fresh build's:\n%s", how, cells[i].name, firstDiff(fresh[i].fabric, got.fabric))
		}
		if got.arena != fresh[i].arena {
			t.Errorf("%s: %s: arena after the run holds %s, the fresh build's %s", how, cells[i].name, got.arena, fresh[i].arena)
		}
	}

	// The fault state that must outlive its cell did: otherwise the reset of
	// that state is not under test.
	for i, c := range cells {
		if c.group == "k4-lossy" {
			for _, want := range []string{"agg0.1->core1.0 tx=", "down=true", "extra=70000", "p=0.03"} {
				if !strings.Contains(fresh[i].fabric, want) {
					t.Fatalf("%s: fabric digest lacks %q: the fault did not outlive the run", c.name, want)
				}
			}
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		// Orders 1 and 2 keep each fabric group together, shuffled inside,
		// so all but the first cell of a group recycle; order 3 shuffles
		// everything, so fabrics are also dropped and rebuilt mid-sequence.
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(len(cells))
		rank := map[string]int{} // groups by first appearance
		for _, i := range order {
			if _, ok := rank[cells[i].group]; !ok {
				rank[cells[i].group] = len(rank)
			}
		}
		if seed < 3 {
			slices.SortStableFunc(order, func(a, b int) int { return rank[cells[a].group] - rank[cells[b].group] })
		}

		how := fmt.Sprintf("order %d, one worker", seed)
		w := &Worker{arena: mptcp.NewArena()}
		if seed == 2 {
			how += ", poison"
			w.arena.Poison = true
		}
		recycled := 0
		var prev any
		var prevJSON string
		for _, i := range order {
			before := w.net
			v := cells[i].run(w)
			if w.net == before {
				recycled++
			}
			check(how, i, outcome{mustJSON(t, v), fabricDigest(w.net), arenaDigest(w.arena)})
			w.lent = false // what RunAll does when run(i) returns
			// The previous cell's result must not alias the fabric this
			// cell has just reset and run on.
			if prev != nil && mustJSON(t, prev) != prevJSON {
				t.Errorf("%s: the result before %s changed when the fabric was reused", how, cells[i].name)
			}
			prev, prevJSON = v, mustJSON(t, v)
		}
		if seed < 3 {
			if want := len(order) - len(rank); recycled != want {
				t.Errorf("%s: %d cells recycled a fabric, want %d (every cell but the first of each of %d groups)", how, recycled, want, len(rank))
			}
		} else if recycled == 0 {
			t.Errorf("%s: no cell recycled a fabric", how)
		}

		for _, jobs := range []int{1, 4} {
			how := fmt.Sprintf("order %d, RunAll jobs=%d", seed, jobs)
			got := RunAll(len(order), jobs, func(w *Worker, j int) outcome {
				data, err := json.Marshal(cells[order[j]].run(w))
				if err != nil {
					panic(err)
				}
				return outcome{string(data), fabricDigest(w.net), arenaDigest(w.arena)}
			}, nil)
			for j, o := range got {
				check(how, order[j], o)
			}
		}
	}
}

// firstDiff returns the first line at which two digests differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			other := "<end>"
			if i < len(bl) {
				other = bl[i]
			}
			return fmt.Sprintf("line %d\nfresh:    %s\nrecycled: %s", i+1, al[i], other)
		}
	}
	return fmt.Sprintf("recycled digest has %d extra lines", len(bl)-len(al))
}

// TestArenaNilEqualsArenaSet is the metamorphic relation "Arena nil equals
// Arena set": a cell whose flows are each built on their own and never
// recycled (Cell.Base.Arena nil) and the same cell on a worker whose arena
// has already run another scheme's cell — so it rewinds, recycles within
// the cell and carves from memory another shape used — must encode to the
// same bytes and leave the same fabric. A difference would make recycling
// visible in results.
func TestArenaNilEqualsArenaSet(t *testing.T) {
	// The horizon lets the second round start: the first loses packets at
	// the client's port and ends on 200 ms retransmission timeouts.
	burst := FCTCellConfig{Cell: CellConfig{K: 4, Duration: 300 * sim.Millisecond}, Scheme: SchemeXMP2,
		Incast: &workload.IncastBurstConfig{Senders: 96, ResponseBytes: 16 << 10, Rounds: 2, UseScheme: true}}
	perm := patternCell(CellConfig{K: 4, SizeScale: 1024}, Row{Pattern: Permutation})
	for _, tc := range []struct {
		name   string
		cfg    CellConfig
		scheme workload.Scheme
		run    func(c *Cell) any
		before func(w *Worker)
	}{
		{"fct/incast-burst/XMP-2", burst.Cell, burst.Scheme,
			func(c *Cell) any { return runFCT(c, burst) },
			func(w *Worker) { RunFatTree(w, perm, Row{Pattern: Permutation}, SchemeTCP) }},
		{"matrix/permutation/XMP-2", perm, SchemeXMP2,
			func(c *Cell) any { return runPattern(c, Row{Pattern: Permutation}) },
			func(w *Worker) {
				b := burst
				b.Scheme = SchemeDCTCP
				runFCTCell(w, b)
			}},
	} {
		c := NewCell(nil, tc.cfg, tc.scheme)
		c.Base.Arena = nil
		bare, bareFabric := mustJSON(t, tc.run(c)), fabricDigest(c.Net)

		w := new(Worker)
		tc.before(w)
		w.lent = false
		c = NewCell(w, tc.cfg, tc.scheme)
		set, setFabric := mustJSON(t, tc.run(c)), fabricDigest(c.Net)
		if w.arena.Recycled() == 0 {
			t.Fatalf("%s: no flow recycled in the cell, so the arena is not under test", tc.name)
		}
		if set != bare {
			t.Errorf("%s: payload with the worker's arena differs from the one without\nno arena: %.300s\narena:    %.300s", tc.name, bare, set)
		}
		if setFabric != bareFabric {
			t.Errorf("%s: fabric state with the worker's arena differs from the one without:\n%s", tc.name, firstDiff(bareFabric, setFabric))
		}
	}
}
