// Package sched implements DRIM-ANN's runtime query scheduling (paper §3.3):
// a greedy mapper that sends each (query, cluster-slice) task to the coldest
// DPU holding a copy of that slice, a rebalancing pass that exploits
// duplicated slices to shave the long tail, and overheat postponement that
// defers tasks from DPUs loaded beyond th3 times the mean to the next launch.
// After scheduling, all DPUs are launched synchronously, so a launch is as
// slow as its hottest DPU.
//
// Heat is summed task by task from the caller's price (Config.Cost): one
// launch may hold tasks of different kinds — the engine's carry a query's
// bound or do not, and with one a slice costs the less the further its list
// lies beyond the bound, which is why a task carries its probe's CL distance
// (Dist) to the hook. The same hook says which tasks postponement must leave
// alone: a task whose query has no bound yet is the scan that produces it, and
// deferring it sends the rest of the query's scans out unbounded. A hot DPU
// sheds its latest deferrable tasks and keeps the others. A price only moves
// tasks between copies of a slice and between launches; nothing is dropped.
package sched

import (
	"sort"

	"drimann/internal/layout"
)

// Request asks for one query to be searched in one located cluster, Dist the
// CL distance between them (0: unknown). Only Config.Cost reads it.
type Request struct {
	Query   int32
	Cluster int32
	Dist    uint32
}

// Task is a scheduled unit: one query scanning one slice copy on one DPU,
// with its request's Dist, which it keeps while carried from launch to launch
// (DPU and Dist share a word: a launch sorts and copies tasks by the million).
type Task struct {
	Query   int32
	Cluster int32
	Slice   int // index into placement.Slices
	DPU     int32
	Dist    uint32
}

// Config controls scheduling.
type Config struct {
	// Cost predicts the execution cycles of task t (Query, Cluster and Slice
	// set) in the launch being scheduled, and says whether the task may be
	// postponed. The engine supplies the performance-model-derived estimate,
	// which knows what the slice scans beyond its Count (a live append
	// segment) and how far t.Dist lies from the bound t's query carries — and
	// exempts the tasks of a query that has none. nil costs a task its slice's
	// Count and exempts nothing.
	Cost func(t Task) (cycles float64, deferrable bool)
	// Th3 is the overheat threshold: after greedy assignment, tasks are
	// postponed while a DPU's predicted heat exceeds Th3 x mean heat.
	// <= 0 disables postponement.
	Th3 float64
	// Rebalance enables the long-tail pass that moves tasks from the hottest
	// DPU to colder replicas.
	Rebalance bool
}

// Batch is the result of scheduling one query batch. A Batch can be reused
// across GreedyInto calls: its slices are truncated and refilled rather than
// reallocated, which keeps the per-launch scheduling path allocation-free.
type Batch struct {
	PerDPU    [][]Task  // tasks per DPU
	Postponed []Task    // deferred to the next batch (already slice-level)
	Heat      []float64 // predicted cycles per DPU

	scratch []Task // reused task-expansion buffer
}

// GreedyInto schedules requests (plus carried-over tasks) onto DPUs into
// caller-owned storage: b's slices are reset and refilled in place (grown only when capacity is insufficient), so a batch
// loop that reuses one Batch performs no steady-state allocation. carried
// must not alias b.Postponed from the same Batch — copy it out first.
func GreedyInto(b *Batch, reqs []Request, carried []Task, pl *layout.Placement, cfg Config) {
	if cfg.Cost == nil {
		cfg.Cost = func(t Task) (float64, bool) { return float64(pl.Slices[t.Slice].Count), true }
	}
	if cap(b.PerDPU) < pl.NumDPUs {
		b.PerDPU = make([][]Task, pl.NumDPUs)
	}
	b.PerDPU = b.PerDPU[:pl.NumDPUs]
	for d := range b.PerDPU {
		b.PerDPU[d] = b.PerDPU[d][:0]
	}
	if cap(b.Heat) < pl.NumDPUs {
		b.Heat = make([]float64, pl.NumDPUs)
	}
	b.Heat = b.Heat[:pl.NumDPUs]
	for d := range b.Heat {
		b.Heat[d] = 0
	}
	b.Postponed = b.Postponed[:0]

	// Expand requests into slice-level tasks; carried tasks come first so
	// postponed work from the previous batch is not starved.
	tasks := append(b.scratch[:0], carried...)
	for _, r := range reqs {
		for _, si := range pl.ByCluster[r.Cluster] {
			tasks = append(tasks, Task{Query: r.Query, Cluster: r.Cluster, Dist: r.Dist, Slice: si})
		}
	}
	b.scratch = tasks

	// Greedy: each task to the coldest replica DPU.
	for i := range tasks {
		t := &tasks[i]
		s := &pl.Slices[t.Slice]
		best := -1
		for _, d := range s.DPUs {
			if best < 0 || b.Heat[d] < b.Heat[best] {
				best = d
			}
		}
		t.DPU = int32(best)
		cost, _ := cfg.Cost(*t)
		b.Heat[best] += cost
		b.PerDPU[best] = append(b.PerDPU[best], *t)
	}

	if cfg.Rebalance {
		rebalance(b, pl, cfg)
	}
	if cfg.Th3 > 0 {
		postpone(b, cfg)
	}
}

// rebalance repeatedly moves a task off the hottest DPU onto a colder
// replica while that lowers the predicted maximum.
func rebalance(b *Batch, pl *layout.Placement, cfg Config) {
	for iter := 0; iter < 4*pl.NumDPUs; iter++ {
		hot := argmaxHeat(b.Heat)
		improved := false
		tasks := b.PerDPU[hot]
		for ti := len(tasks) - 1; ti >= 0; ti-- {
			t := tasks[ti]
			s := &pl.Slices[t.Slice]
			cost, _ := cfg.Cost(t)
			for _, d := range s.DPUs {
				if d == hot {
					continue
				}
				if b.Heat[d]+cost < b.Heat[hot] {
					b.PerDPU[hot] = append(tasks[:ti], tasks[ti+1:]...)
					t.DPU = int32(d)
					b.PerDPU[d] = append(b.PerDPU[d], t)
					b.Heat[hot] -= cost
					b.Heat[d] += cost
					improved = true
					break
				}
			}
			if improved {
				break
			}
		}
		if !improved {
			return
		}
	}
}

// postpone defers the latest deferrable tasks of overheated DPUs to the next
// launch; a DPU keeps one task, and every task Config.Cost exempts.
func postpone(b *Batch, cfg Config) {
	mean := meanHeat(b.Heat)
	if mean == 0 {
		return
	}
	limit := cfg.Th3 * mean
	for d, tasks := range b.PerDPU {
		for i := len(tasks) - 1; i >= 0 && b.Heat[d] > limit && len(tasks) > 1; i-- {
			t := tasks[i]
			cost, ok := cfg.Cost(t)
			if !ok {
				continue
			}
			tasks = append(tasks[:i], tasks[i+1:]...)
			b.Heat[d] -= cost
			t.DPU = -1
			b.Postponed = append(b.Postponed, t)
		}
		b.PerDPU[d] = tasks
	}
	// Deterministic order for the next batch.
	sort.Slice(b.Postponed, func(i, j int) bool {
		a, c := b.Postponed[i], b.Postponed[j]
		if a.Query != c.Query {
			return a.Query < c.Query
		}
		return a.Slice < c.Slice
	})
}

func argmaxHeat(heat []float64) int {
	best := 0
	for i, h := range heat {
		if h > heat[best] {
			best = i
		}
	}
	return best
}

func meanHeat(heat []float64) float64 {
	var sum float64
	for _, h := range heat {
		sum += h
	}
	return sum / float64(len(heat))
}
