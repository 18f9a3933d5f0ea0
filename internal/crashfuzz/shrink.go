package crashfuzz

import (
	"encoding/binary"
	"fmt"

	"bdhtm/internal/durability"
)

// Fuzz runs `rounds` rounds derived from base.Seed. Overridden fields in
// base apply to every round; everything else re-derives per round. On the
// first failure it shrinks the round and returns the minimized Failure.
// logf (optional) receives progress lines.
func Fuzz(base RoundParams, rounds int, logf func(format string, args ...any)) *Failure {
	for i := 0; i < rounds; i++ {
		p := base
		p.Seed = Mix(base.Seed, uint64(i))
		if f := RunRound(p); f != nil {
			if logf != nil {
				logf("round %d/%d FAILED: %s", i+1, rounds, f.Msg)
				logf("shrinking...")
			}
			return Shrink(f, logf)
		}
		if logf != nil && (i+1)%50 == 0 {
			logf("round %d/%d ok", i+1, rounds)
		}
	}
	return nil
}

// Shrink minimizes a failing round by bisecting its event budget: fewer
// crash events, fewer ops, an earlier crash point. Because Resolve
// consumes its RNG draws unconditionally, overriding these fields leaves
// the op stream itself untouched — a shrunk round replays a prefix of the
// original. Rounds that do not reproduce deterministically (concurrent
// interleavings) are returned unshrunk.
func Shrink(f *Failure, logf func(format string, args ...any)) *Failure {
	cur := f
	if RunRound(cur.Params) == nil {
		return f // not deterministic at this seed; keep the original report
	}
	try := func(p RoundParams) bool {
		if nf := RunRound(p); nf != nil {
			cur = nf
			return true
		}
		return false
	}
	if cur.Params.CrashEvents > 1 {
		p := cur.Params
		p.CrashEvents = 1
		try(p)
	}
	for i := 0; i < 12; i++ {
		shrunk := false
		if cur.Params.Ops > 8 {
			p := cur.Params
			p.Ops = p.Ops / 2
			if p.CrashAfter > p.Ops {
				p.CrashAfter = p.Ops
			}
			shrunk = try(p) || shrunk
		}
		if cur.Params.CrashAfter > 4 {
			p := cur.Params
			p.CrashAfter = p.CrashAfter / 2
			shrunk = try(p) || shrunk
		}
		if cur.Params.CrashStep > 1 {
			p := cur.Params
			p.CrashStep = p.CrashStep / 2
			shrunk = try(p) || shrunk
		}
		if !shrunk {
			break
		}
	}
	if cur.Params.TailAdvances > 0 {
		p := cur.Params
		p.TailAdvances = 0
		try(p)
	}
	if logf != nil {
		logf("shrunk to: %s", cur.Params.ReplayString())
	}
	return cur
}

// ReplayBytes drives a subject from a raw byte stream — the bridge into
// Go's native fuzzing. The first 8 bytes seed the heap/HTM RNGs; seed
// bit 5 selects the flusher schedule (set = the flusher step runs right
// after each advance, clear = it lags a full epoch) and bits 6-8 the
// durability engine (modulo durability.Names()), so the fuzzer's inputs
// exercise every persistence-path configuration. Bits 4, 9-10 and 11
// selected knobs that no longer exist (the last two the recovery scan's
// worker count); like every other bit they still vary the seed.
// Each following byte decodes to one action on a 32-key universe:
//
//	b>>5 == 0,1,7  insert key b&31
//	b>>5 == 2      remove key b&31
//	b>>5 == 3      get key b&31
//	b>>5 == 4      epoch advance
//	b>>5 == 5      crash with EvictFraction (b&31)/31, recover, check
//	b>>5 == 6      crash with EvictFraction 1, recover, check
//
// The same exact-prefix/strict checking as single-writer rounds applies
// after every crash. Returns nil when the input is consistent.
func ReplayBytes(subject string, data []byte) *Failure {
	if len(data) < 8 {
		return nil
	}
	sub, err := NewSubject(subject)
	if err != nil {
		return &Failure{Msg: err.Error()}
	}
	p := RoundParams{
		Subject:  subject,
		Seed:     binary.LittleEndian.Uint64(data[:8]),
		KeySpace: 32,
		Workers:  1,
		Evict:    1,
	}
	if p.Seed&(1<<5) != 0 {
		p.Async = 1
	}
	names := durability.Names()
	p.Engine = names[(p.Seed>>6)&7%uint64(len(names))]
	s := newSession(p, sub, DefaultHeapWords)
	fail := func(err error) *Failure {
		return &Failure{Params: p, Msg: fmt.Sprintf("%s (native fuzz input, seed 0x%x)", err, p.Seed)}
	}

	const maxActions = 512
	actions := data[8:]
	if len(actions) > maxActions {
		actions = actions[:maxActions]
	}
	for _, b := range actions {
		k := uint64(b & 31)
		switch b >> 5 {
		case 0, 1, 7:
			if err := s.op(0, k); err != nil {
				return fail(err)
			}
		case 2:
			if err := s.op(1, k); err != nil {
				return fail(err)
			}
		case 3:
			if err := s.op(2, k); err != nil {
				return fail(err)
			}
		case 4:
			s.advance()
		case 5:
			s.p.Evict = float64(k) / 31
			if err := s.crashCheck(false); err != nil {
				return fail(err)
			}
		case 6:
			s.p.Evict = 1
			if err := s.crashCheck(false); err != nil {
				return fail(err)
			}
		}
	}
	return nil
}
