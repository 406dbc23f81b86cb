package scanner

import "iwscan/internal/wire"

// SmartDecision is a plan's verdict for one address: visit it early
// (its prefix has historically answered), visit it in the normal
// sweep, or skip it entirely (its prefix has only ever been dark).
type SmartDecision uint8

const (
	// SmartCold schedules the address in the regular (second) pass.
	SmartCold SmartDecision = iota
	// SmartHot schedules the address in the priority (first) pass.
	SmartHot
	// SmartPruned skips the address.
	SmartPruned
)

// String returns the decision name.
func (d SmartDecision) String() string {
	switch d {
	case SmartHot:
		return "hot"
	case SmartPruned:
		return "pruned"
	default:
		return "cold"
	}
}

// SmartPlan is a topology-aware target-selection policy (built by
// internal/prefixtree from a trained responsiveness model). Plans must
// be immutable: the engine consults them on every launch, parallel
// shards share one plan, and resume correctness requires that the same
// plan state always yields the same decisions — which is why
// FingerprintKey joins the checkpoint fingerprint.
type SmartPlan interface {
	// Decide classifies one address.
	Decide(a wire.Addr) SmartDecision
	// PrunedPrefixes returns the prefixes the plan prunes (possibly
	// nested), for target estimation. Callers must not modify it.
	PrunedPrefixes() []wire.Prefix
	// FingerprintKey renders the plan's identity (model hash plus
	// thresholds) for checkpoint fingerprinting.
	FingerprintKey() string
}

// SmartShard iterates a shard's slice of the permutation in two
// phases: phase 0 walks the full cycle emitting only indices the plan
// calls hot, phase 1 walks the same cycle again emitting everything
// else (cold and pruned — the engine prunes, so the pruned count is
// observable in its stats). Each phase is the unmodified ZMap
// permutation, so within a phase the order is exactly the dumb scan's
// order and the union of both phases is exactly the shard's slice.
// LastPos offsets phase 1 by the cycle length, preserving the total
// order across shards that the k-way merge keys on. With a nil plan
// (the engine's plain scans) it is the plain shard walk: one phase,
// every decision SmartCold.
type SmartShard struct {
	space *TargetSpace
	plan  SmartPlan
	phase int
	cur   *Shard
}

// NewSmartShard builds the two-phase iterator over space for shard
// shard of shards.
func NewSmartShard(space *TargetSpace, seed, shard, shards uint64, plan SmartPlan) *SmartShard {
	return &SmartShard{space: space, plan: plan, cur: NewShard(space.Size(), seed, shard, shards)}
}

// Next returns the next index of the shard's two-phase order.
func (s *SmartShard) Next() (uint64, bool) {
	idx, _, _, _, ok := s.advance()
	return idx, ok
}

// advance returns the next index of the two-phase order that the
// shard's sampler keeps, with its address and the plan's decision: the
// plan and the space are consulted only for sampled indices. unsampled
// counts the indices the sampler dropped on the way in the last phase
// only, so each one is counted once over the whole walk.
func (s *SmartShard) advance() (idx uint64, addr wire.Addr, d SmartDecision, unsampled int64, ok bool) {
	for {
		idx, n, ok := s.cur.advance()
		if s.lastPhase() {
			unsampled += n
		}
		if !ok {
			if s.lastPhase() {
				return 0, 0, 0, unsampled, false
			}
			s.phase = 1
			s.cur.rewind()
			continue
		}
		addr = s.space.At(idx)
		if s.plan == nil {
			return idx, addr, SmartCold, unsampled, true
		}
		d = s.plan.Decide(addr)
		if (d == SmartHot) == (s.phase == 0) {
			return idx, addr, d, unsampled, true
		}
	}
}

// lastPhase reports whether the walk is in its final phase: phase 1,
// or the only phase of a walk without a plan.
func (s *SmartShard) lastPhase() bool { return s.plan == nil || s.phase == 1 }

// LastPos returns the global position of the most recently produced
// index: the underlying cycle position, offset by one full cycle per
// completed phase. Monotonically increasing per shard and totally
// ordered across shards sharing (n, seed, plan).
func (s *SmartShard) LastPos() uint64 { return uint64(s.phase)*s.space.Size() + s.cur.LastPos() }

// State returns the resumable cursor (phase plus cycle cursor).
func (s *SmartShard) State() ShardState {
	st := s.cur.State()
	st.Phase = s.phase
	return st
}

// SetState restores a cursor previously obtained from State. The
// iterator must have been built with the same (space, seed, shard,
// shards) and a plan with the same fingerprint.
func (s *SmartShard) SetState(st ShardState) {
	s.phase = st.Phase
	s.cur.SetState(ShardState{Cycle: st.Cycle, Pos: st.Pos})
}
