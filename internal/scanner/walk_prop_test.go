package scanner

import (
	"math/bits"
	"math/rand"
	"testing"

	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// walkLaunch is one fresh launch as observed from outside the engine:
// its sequence number, global cycle position, address, the iterator
// state that reproduces it, and the engine's Skipped count at launch.
type walkLaunch struct {
	seq, pos uint64
	addr     wire.Addr
	pre      ShardState
	skipped  int64
}

// walkCase is one randomized engine configuration.
type walkCase struct {
	space  *TargetSpace
	seed   uint64
	frac   float64
	shard  uint64
	shards uint64
	plan   SmartPlan
}

// referenceWalk is the engine's walk rebuilt from the public pieces
// only, applying the filters one emitted index at a time: iterator
// first, then sampler, blacklist and plan.
func referenceWalk(c walkCase) (launches []walkLaunch, skipped, pruned int64) {
	var it interface {
		Next() (uint64, bool)
		LastPos() uint64
		State() ShardState
	}
	if c.plan != nil {
		it = NewSmartShard(c.space, c.seed, c.shard, c.shards, c.plan)
	} else {
		it = NewShard(c.space.Size(), c.seed, c.shard, c.shards)
	}
	sampler := NewSampler(c.seed, c.frac)
	for {
		pre := it.State()
		for {
			idx, ok := it.Next()
			if !ok {
				return launches, skipped, pruned
			}
			if !sampler.Keep(idx) {
				skipped++
				continue
			}
			addr := c.space.At(idx)
			if c.space.Blacklisted(addr) {
				skipped++
				continue
			}
			if c.plan != nil && c.plan.Decide(addr) == SmartPruned {
				pruned++
				continue
			}
			launches = append(launches, walkLaunch{
				seq: uint64(len(launches)), pos: it.LastPos(), addr: addr, pre: pre, skipped: skipped,
			})
			break
		}
	}
}

// engineWalk runs the real engine over c (from resume, when non-nil)
// and records every launch. Probes complete synchronously, so inside
// the launch callback the frontier is the launching probe and Cursor
// reports its pre-launch iterator state.
func engineWalk(t *testing.T, c walkCase, resume *Cursor) ([]walkLaunch, Stats) {
	n := netsim.New(1)
	var e *Engine
	var got []walkLaunch
	launch := func(addr wire.Addr, done func()) {
		seq, pos := e.LaunchCursor()
		cur := e.Cursor()
		if cur.Seq != seq {
			t.Fatalf("frontier %d is not the launching probe %d", cur.Seq, seq)
		}
		got = append(got, walkLaunch{seq: seq, pos: pos, addr: addr, pre: cur.Shard, skipped: e.Stats().Skipped})
		done()
	}
	e = NewEngine(n, c.space, Config{
		Rate: 1e6, Seed: c.seed, SampleFraction: c.frac,
		Shard: c.shard, Shards: c.shards, Smart: c.plan, Resume: resume,
	}, launch)
	e.Start()
	n.RunUntilIdle()
	return got, e.Stats()
}

// randomWalkCase draws a prefix or list space, a blacklist that
// overlaps it, a sample fraction, a shard split and (two times in
// three) a smart plan with random hot /24s and pruned prefixes.
func randomWalkCase(rng *rand.Rand) walkCase {
	c := walkCase{seed: rng.Uint64(), shards: uint64(rng.Intn(4) + 1)}
	c.shard = uint64(rng.Intn(int(c.shards)))
	var prefixes []wire.Prefix
	for i := rng.Intn(3) + 1; i > 0; i-- {
		width := 22 + rng.Intn(7) // /22 ... /28
		prefixes = append(prefixes, wire.Prefix{Addr: wire.Addr(rng.Uint32()) &^ (1<<(32-width) - 1), Bits: width})
	}
	if rng.Intn(3) == 0 {
		addrs := make([]wire.Addr, rng.Intn(1500)+1)
		for i := range addrs {
			p := prefixes[rng.Intn(len(prefixes))]
			addrs[i] = p.Nth(uint64(rng.Int63n(int64(p.Size()))))
		}
		c.space = NewSpaceFromList(addrs)
	} else {
		c.space = NewSpaceFromPrefixes(prefixes)
	}
	// subPrefix picks a random /bits..32 prefix inside one of the space's
	// prefixes, so blacklist and plan entries actually bite.
	subPrefix := func() wire.Prefix {
		p := prefixes[rng.Intn(len(prefixes))]
		b := p.Bits + rng.Intn(33-p.Bits)
		a := p.Nth(uint64(rng.Int63n(int64(p.Size()))))
		return wire.Prefix{Addr: a &^ wire.Addr(uint64(1)<<(32-b)-1), Bits: b}
	}
	for i := rng.Intn(3); i > 0; i-- {
		c.space.AddBlacklist(subPrefix())
	}
	c.frac = 1
	if rng.Intn(4) != 0 {
		c.frac = 0.05 + 0.9*rng.Float64()
	}
	if rng.Intn(3) != 0 {
		plan := &fakePlan{hot: map[wire.Addr]bool{}}
		for _, p := range prefixes {
			for a := uint64(0); a < p.Size(); a += 256 {
				if rng.Intn(2) == 0 {
					plan.hot[p.Nth(a)&^0xff] = true
				}
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			plan.pruned = append(plan.pruned, subPrefix())
		}
		c.plan = plan
	}
	return c
}

// TestEngineWalkMatchesReference: for random spaces, blacklists,
// samples, shard splits and plans, the engine launches exactly the
// reference walk's sequence — same seq, cycle position, address and
// pre-launch iterator state — and ends with the same Skipped and
// Pruned. Plain scans also match Skipped at every launch; smart scans
// count unsampled indices in phase 1, so only their totals must agree.
// Resuming from every k-th launch's cursor replays the remainder.
func TestEngineWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x3a1c))
	var smartPruned, sampledSharded, launches int
	for trial := 0; trial < 150; trial++ {
		c := randomWalkCase(rng)
		want, wantSkipped, wantPruned := referenceWalk(c)
		launches += len(want)
		if wantPruned > 0 {
			smartPruned++
		}
		if c.frac < 1 && c.shards > 1 {
			sampledSharded++
		}
		got, st := engineWalk(t, c, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: engine launched %d, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if c.plan != nil {
				w.skipped, g.skipped = 0, 0
			}
			if g != w {
				t.Fatalf("trial %d: launch %d = %+v, reference %+v", trial, i, g, w)
			}
		}
		if st.Skipped != wantSkipped || st.Pruned != wantPruned || st.Launched != int64(len(want)) {
			t.Fatalf("trial %d: launched/skipped/pruned = %d/%d/%d, reference %d/%d/%d", trial,
				st.Launched, st.Skipped, st.Pruned, len(want), wantSkipped, wantPruned)
		}
		k := len(want)/5 + 1
		for cut := 0; cut < len(want); cut += k {
			resumed, _ := engineWalk(t, c, &Cursor{Seq: want[cut].seq, Shard: want[cut].pre})
			if len(resumed) != len(want)-cut {
				t.Fatalf("trial %d: resume at %d launched %d, want %d", trial, cut, len(resumed), len(want)-cut)
			}
			for i, g := range resumed {
				w := want[cut+i]
				if g.seq != w.seq || g.pos != w.pos || g.addr != w.addr || g.pre != w.pre {
					t.Fatalf("trial %d: resume at %d: launch %d = %+v, reference %+v", trial, cut, i, g, w)
				}
			}
		}
	}
	// The generator must keep exercising the interesting cases.
	if smartPruned < 20 || sampledSharded < 20 || launches < 10000 {
		t.Fatalf("weak coverage: %d pruning trials, %d sampled sharded trials, %d launches",
			smartPruned, sampledSharded, launches)
	}
}

// mulModWide is mulMod's general form: a 128-bit product reduced by a
// 128-by-64 division.
func mulModWide(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// TestMulModFastPathMatchesDiv64: the 32-bit fast path must agree with
// the 128-bit form for random operands, reduced and not, at moduli just
// below, at and above 2^32 (the largest 32-bit prime is 2^32-5).
func TestMulModFastPathMatchesDiv64(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6d6d))
	moduli := []uint64{1, 2, 3, 237569, 1<<32 - 5, 1<<32 - 1, 1 << 32, 1<<32 + 15, 1<<63 + 29, ^uint64(0)}
	for i := 0; i < 200; i++ {
		moduli = append(moduli, uint64(rng.Uint32())|1, rng.Uint64()|1)
	}
	for _, m := range moduli {
		for i := 0; i < 200; i++ {
			a, b := rng.Uint64(), rng.Uint64()
			switch i % 4 {
			case 0: // reduced operands, as in every cycle step
				a, b = a%m, b%m
			case 1: // 32-bit operands
				a, b = a&0xffffffff, b&0xffffffff
			case 2: // one operand wide
				a %= m
			}
			if got, want := mulMod(a, b, m), mulModWide(a, b, m); got != want {
				t.Fatalf("mulMod(%d, %d, %d) = %d, want %d", a, b, m, got, want)
			}
		}
	}
}
