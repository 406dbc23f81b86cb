package scanner

// Cycle iterates a pseudo-random permutation of [0, n) exactly once,
// using ZMap's construction: walk the multiplicative group of integers
// modulo the smallest prime p >= n+1 by repeatedly multiplying with a
// primitive root, skipping group elements that fall outside the target
// range. Every index is visited exactly once, in an order that looks
// random, with O(1) memory — which is what lets ZMap scan the IPv4
// space without keeping per-address state.
type Cycle struct {
	n     uint64 // permutation size
	p     uint64 // prime modulus, p >= n+1
	g     uint64 // primitive root mod p
	start uint64 // first element
	cur   uint64
	done  bool
	first bool
}

// NewCycle builds a permutation of [0, n) seeded by seed. Different
// seeds give different generators and starting points, i.e. different
// scan orders. n must be at least 1.
func NewCycle(n uint64, seed uint64) *Cycle {
	if n == 0 {
		panic("scanner: empty cycle")
	}
	// Group elements are [1, p-1]; we map element e to index e-1 and skip
	// elements with e-1 >= n. p >= n+1 guarantees every index is covered.
	p := NextPrime(n + 1)
	g := PrimitiveRoot(p, seed)
	// A second derived value picks the start element.
	start := seed*0x9e3779b97f4a7c15%(p-1) + 1
	return &Cycle{n: n, p: p, g: g, start: start, cur: start, first: true}
}

// N returns the permutation size.
func (c *Cycle) N() uint64 { return c.n }

// CycleState is the resumable cursor of a Cycle: the current group
// element plus the two phase flags. It is tiny and serializable, which
// is what lets a checkpoint capture "where the permutation is" without
// recording any of the indices already visited.
type CycleState struct {
	Cur   uint64 `json:"cur"`
	First bool   `json:"first"`
	Done  bool   `json:"done"`
}

// State returns the cursor after the most recent Next call. Restoring it
// with SetState on a Cycle built from the same (n, seed) resumes the
// permutation at exactly the next index.
func (c *Cycle) State() CycleState {
	return CycleState{Cur: c.cur, First: c.first, Done: c.done}
}

// SetState rewinds or fast-forwards the cycle to a cursor previously
// obtained from State. The receiver must have been built with the same
// (n, seed) as the cycle the state came from; the caller is responsible
// for that invariant (checkpoints enforce it with a config fingerprint).
func (c *Cycle) SetState(s CycleState) {
	c.cur = s.Cur
	c.first = s.First
	c.done = s.Done
}

// rewind restarts the cycle at its first element, as if freshly built.
func (c *Cycle) rewind() {
	c.cur, c.first, c.done = c.start, true, false
}

// Next returns the next index of the permutation, or ok=false when all
// n indices have been produced.
func (c *Cycle) Next() (idx uint64, ok bool) {
	if c.done {
		return 0, false
	}
	for {
		if c.first {
			c.first = false
		} else {
			c.cur = mulMod(c.cur, c.g, c.p)
			if c.cur == c.start {
				c.done = true
				return 0, false
			}
		}
		if c.cur-1 < c.n {
			return c.cur - 1, true
		}
	}
}

// Shard restricts iteration to every shards-th produced index, starting
// at offset shard (0-based), the way ZMap distributes one scan across
// machines: each shard walks the same cycle but keeps a disjoint subset.
type Shard struct {
	cycle  *Cycle
	shard  uint64
	shards uint64
	pos    uint64
	// sampler, when set (only the engine sets it), drops unsampled
	// indices inside the walk, so each costs one cycle step and one
	// hash. A Shard from NewShard has none and emits every index.
	sampler *Sampler
}

// NewShard wraps cycle to produce shard shard of shards. All shards of
// the same (n, seed) cycle partition [0, n) exactly.
func NewShard(n, seed, shard, shards uint64) *Shard {
	if shards == 0 || shard >= shards {
		panic("scanner: invalid shard spec")
	}
	return &Shard{cycle: NewCycle(n, seed), shard: shard, shards: shards}
}

// Next returns the next index belonging to this shard.
func (s *Shard) Next() (uint64, bool) {
	idx, _, ok := s.advance()
	return idx, ok
}

// advance returns the next index of this shard the sampler keeps, plus
// the number of the shard's indices the sampler dropped on the way
// (also when the walk ends, ok=false).
func (s *Shard) advance() (idx uint64, unsampled int64, ok bool) {
	for {
		idx, ok := s.cycle.Next()
		if !ok {
			return 0, unsampled, false
		}
		mine := s.shards == 1 || s.pos%s.shards == s.shard
		s.pos++
		if !mine {
			continue
		}
		if s.sampler != nil && !s.sampler.Keep(idx) {
			unsampled++
			continue
		}
		return idx, unsampled, true
	}
}

// rewind restarts the shard's walk from the beginning of the cycle.
func (s *Shard) rewind() {
	s.cycle.rewind()
	s.pos = 0
}

// LastPos returns the global cycle position (0-based, counted across all
// shards) of the most recently produced index. It is only meaningful
// after Next has returned true at least once. Because every shard walks
// the same cycle, LastPos totally orders indices across shards: sorting
// a sharded scan's outputs by this position reproduces the unsharded
// scan order.
func (s *Shard) LastPos() uint64 { return s.pos - 1 }

// ShardState is the resumable cursor of a Shard: the underlying cycle
// cursor plus the count of cycle positions consumed so far. Phase is
// used only by SmartShard (which walks the cycle twice); a plain Shard
// leaves it zero.
type ShardState struct {
	Cycle CycleState `json:"cycle"`
	Pos   uint64     `json:"pos"`
	Phase int        `json:"phase,omitempty"`
}

// State returns the cursor after the most recent Next call.
func (s *Shard) State() ShardState {
	return ShardState{Cycle: s.cycle.State(), Pos: s.pos}
}

// SetState restores a cursor previously obtained from State. The shard
// must have been built with the same (n, seed, shard, shards).
func (s *Shard) SetState(st ShardState) {
	s.cycle.SetState(st.Cycle)
	s.pos = st.Pos
}
