// ProbeSet and SearchBatchProbed: the engine's CL-skipping entry point.
// A sharded deployment resolves cluster probes once at its front door
// (Locator), partitions them per shard, and hands each shard engine its
// slice of the probe lists here — the engine runs schedule + DPU kernels +
// merge exactly as SearchBatch would, with the CL stage's work (and, unless
// chargeCL is set, its simulated cost) removed.

package core

import "drimann/internal/dataset"

// SearchBatchProbed is SearchBatch with the CL stage pre-resolved: probes
// carries each query's cluster list, in ascending distance order with the CL
// distance beside every probe (the scheduler prices tasks by it), and the
// engine skips cluster locating entirely — scheduling, DPU kernel simulation
// and the host merge run unchanged on the same pipelined, allocation-free
// path. An empty probe list yields an empty result for that query.
//
// chargeCL controls the metrics attribution of the skipped stage: with it
// set, every batch is charged the engine's own Locator.CLSeconds exactly as
// SearchBatch charges it — so a caller that ran this engine's Locator
// itself gets bit-identical Metrics to SearchBatch (the equivalence suite
// pins this). A sharded front door that already charged CL once globally
// passes false, and the per-shard Metrics carry no CL cost at all.
func (e *Engine) SearchBatchProbed(queries dataset.U8Set, probes ProbeSet, chargeCL bool) (*Result, error) {
	if err := probes.Validate(queries.N, e.ix.NList); err != nil {
		return nil, err
	}
	return e.searchBatch(queries, probes, true, chargeCL)
}
