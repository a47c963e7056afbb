package serve

import "drimann/internal/engine"

// Delete routes the backend's Delete through Exclusive; the ids are gone from
// every query batched after the call returns.
func (s *Server) Delete(ids []int32) error {
	return s.exclusiveMut("delete", func(m engine.Mutable) error { return m.Delete(ids) })
}

// Compact routes the backend's Compact through Exclusive, folding the mutation
// overlay back into the packed layout between launches.
func (s *Server) Compact() error { return s.exclusiveMut("compact", engine.Mutable.Compact) }

// Checkpoint routes the backend's Checkpoint through Exclusive: a fresh
// snapshot and a rotated WAL on a backend with a durable store attached.
func (s *Server) Checkpoint() error { return s.exclusiveMut("checkpoint", engine.Mutable.Checkpoint) }
