package crashfuzz

import (
	"fmt"
	"sync"

	"bdhtm/internal/epoch"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/palloc"
)

func init() {
	for _, name := range kv.BufferedKinds() {
		k, _ := kv.Lookup(name)
		register(name, func() Subject { return &bufferedSubject{kvSubject{kind: k}} })
	}
	for _, name := range []string{"cceh", "lbtree"} {
		k, _ := kv.Lookup(name)
		register(name, func() Subject { return &strictSubject{kvSubject{kind: k}} })
	}
	register("palloc", func() Subject { return &pallocSubject{} })
}

// recoverToErr converts a structure-level recovery panic (duplicate key,
// corrupt directory) into the error the checker reports as a finding.
func recoverToErr(name string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s: recovery panic: %v", name, r)
	}
}

const vebUniverseBits = 16

// fuzzKeySpace is what the fuzzer sizes a kind with (kv.Parts.KeySpace):
// bdhash's slot capacity and veb's universe.
var fuzzKeySpace = map[string]uint64{"bdhash": 1 << 10, "veb": 1 << vebUniverseBits}

// kvSubject is what every structure subject shares: one kv kind on the
// round's seeded heap, with one session per worker. bufferedSubject and
// strictSubject add the half of Subject that depends on whether there is
// an epoch system underneath.
type kvSubject struct {
	kind kv.Kind
	env  Env
	heap *nvm.Heap
	st   *kv.Stack
	hs   []kv.Session
}

func (s *kvSubject) Name() string { return s.kind.Name }

func (s *kvSubject) MaxKeySpace() uint64 {
	if s.kind.Bounded {
		return fuzzKeySpace[s.kind.Name]
	}
	return 1 << 40
}

func (s *kvSubject) Init(env Env) {
	env.HeapWords = max(env.HeapWords, s.kind.MinHeapWords)
	s.env = env
	s.heap = env.NVMHeap()
	s.open(kv.Open)
}

// open builds the stack with kv.Open or kv.Recover on the subject's heap
// and a fresh TM and index heap, then registers the workers' sessions in
// worker order.
func (s *kvSubject) open(open func(string, kv.Parts) *kv.Stack) {
	p := kv.Parts{
		Heap:     s.heap,
		TM:       s.env.TM(),
		Epoch:    s.env.epochCfg(),
		KeySpace: fuzzKeySpace[s.kind.Name],
		Threads:  s.env.Workers,
	}
	if s.kind.Index {
		p.Index = s.env.DRAMHeap()
	}
	s.st = open(s.kind.Name, p)
	s.hs = make([]kv.Session, s.env.Workers)
	for i := range s.hs {
		s.hs[i] = s.st.Store.NewSession()
	}
}

func (s *kvSubject) Recover() (err error) {
	defer recoverToErr(s.kind.Name, &err)
	s.open(kv.Recover)
	return nil
}

func (s *kvSubject) Handle(i int) kv.Session { return s.hs[i] }
func (s *kvSubject) Heap() *nvm.Heap         { return s.heap }
func (s *kvSubject) Len() int                { return s.st.Store.Len() }

// bufferedSubject is a BDL kind on the epoch system.
type bufferedSubject struct{ kvSubject }

func (s *bufferedSubject) Durability() Durability      { return Buffered }
func (s *bufferedSubject) GlobalEpoch() uint64         { return s.st.Sys.GlobalEpoch() }
func (s *bufferedSubject) PersistedEpoch() uint64      { return s.st.Sys.PersistedEpoch() }
func (s *bufferedSubject) Advance()                    { s.env.advance(s.st.Sys) }
func (s *bufferedSubject) Crash(opts nvm.CrashOptions) { s.st.Sys.SimulateCrash(opts) }
func (s *bufferedSubject) LiveBlocks() int64           { return s.st.Sys.Allocator().LiveBlocks() }

func (s *bufferedSubject) RecoveryRecords() []epoch.BlockRecord { return s.st.Recovered }

// strictSubject is a baseline that persists every operation itself.
type strictSubject struct{ kvSubject }

func (s *strictSubject) Durability() Durability      { return Strict }
func (s *strictSubject) GlobalEpoch() uint64         { return 0 }
func (s *strictSubject) PersistedEpoch() uint64      { return 0 }
func (s *strictSubject) Advance()                    {}
func (s *strictSubject) Crash(opts nvm.CrashOptions) { s.heap.Crash(opts) }
func (s *strictSubject) LiveBlocks() int64           { return -1 }

// --- palloc (strict, exercises the allocator itself) ------------------------

// pallocTag marks blocks owned by the fuzzer's allocator subject.
const pallocTag uint8 = 0x3F

// pallocEpoch is the "in use" stamp: anything still at palloc.InvalidEpoch
// on the media was mid-allocation and is reclaimed by recovery.
const pallocEpoch uint64 = 1

// pallocSubject drives the persistent allocator directly: Insert(k, v)
// allocates a class-0 block holding {k, v}; Remove frees it and persists
// the FREE header. A class-0 block is three words packed from the slab
// header on, so it may straddle two cache lines: every path persists the
// whole block (persist), never "the block's line", and Insert makes the
// payload durable under its own fence before the header that validates it
// — the one-word header is the only failure-atomic unit there is. A DRAM
// map mirrors the live set and is rebuilt by scanning after a crash.
type pallocSubject struct {
	env  Env
	heap *nvm.Heap
	al   *palloc.Allocator

	mu   sync.Mutex
	live map[uint64]nvm.Addr
}

type pallocHandle struct{ s *pallocSubject }

func (s *pallocSubject) Name() string           { return "palloc" }
func (s *pallocSubject) Durability() Durability { return Strict }
func (s *pallocSubject) MaxKeySpace() uint64    { return 1 << 40 }

func (s *pallocSubject) Init(env Env) {
	s.env = env
	s.heap = env.NVMHeap()
	s.al = palloc.New(s.heap)
	s.live = make(map[uint64]nvm.Addr)
}

func (s *pallocSubject) Handle(i int) kv.Session     { return &pallocHandle{s: s} }
func (s *pallocSubject) Heap() *nvm.Heap             { return s.heap }
func (s *pallocSubject) GlobalEpoch() uint64         { return 0 }
func (s *pallocSubject) PersistedEpoch() uint64      { return 0 }
func (s *pallocSubject) Advance()                    {}
func (s *pallocSubject) Crash(opts nvm.CrashOptions) { s.heap.Crash(opts) }
func (s *pallocSubject) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}
func (s *pallocSubject) LiveBlocks() int64 { return s.al.LiveBlocks() }

func (h *pallocHandle) Insert(k, v uint64) bool {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, dup := s.live[k]; dup {
		// Upsert: overwrite the value word in place and re-persist.
		s.heap.Store(palloc.Payload(b)+1, v)
		s.persist(b)
		return true
	}
	// Alloc leaves the header at InvalidEpoch, which recovery reclaims:
	// the payload goes in and becomes durable under that header first.
	b := s.al.Alloc(0, pallocTag)
	p := palloc.Payload(b)
	s.heap.Store(p, k)
	s.heap.Store(p+1, v)
	s.persist(b)
	s.al.WriteHeader(b, palloc.Header{Status: palloc.Allocated, Class: 0, Tag: pallocTag, Epoch: pallocEpoch})
	s.persist(b)
	s.live[k] = b
	return false
}

// persist writes back every line the class-0 block b touches and fences.
func (s *pallocSubject) persist(b nvm.Addr) {
	s.heap.FlushRange(b, palloc.ClassWords(0))
	s.heap.Fence()
}

func (h *pallocHandle) Remove(k uint64) bool {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.live[k]
	if !ok {
		return false
	}
	s.al.Free(b)
	s.persist(b)
	delete(s.live, k)
	return true
}

func (h *pallocHandle) Get(k uint64) (uint64, bool) {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.live[k]
	if !ok {
		return 0, false
	}
	return s.heap.Load(palloc.Payload(b) + 1), true
}

func (h *pallocHandle) Epoch() uint64     { return 0 }
func (h *pallocHandle) SetSpan(*obs.Span) {}

func (s *pallocSubject) Recover() (err error) {
	defer recoverToErr("palloc", &err)
	s.mu = sync.Mutex{}
	s.al = palloc.New(s.heap)
	if w := s.env.RecoveryWorkers; w > 1 {
		s.al.RecoverParallel(w, func(_ int, bi palloc.BlockInfo) bool {
			return bi.Header.Status == palloc.Allocated && bi.Header.Epoch == pallocEpoch
		})
	} else {
		s.al.Recover(func(bi palloc.BlockInfo) bool {
			return bi.Header.Status == palloc.Allocated && bi.Header.Epoch == pallocEpoch
		})
	}
	live := make(map[uint64]nvm.Addr)
	var dup error
	s.al.Scan(func(bi palloc.BlockInfo) {
		if bi.Header.Status != palloc.Allocated {
			return
		}
		k := s.heap.Load(palloc.Payload(bi.Addr))
		if prev, seen := live[k]; seen {
			dup = fmt.Errorf("palloc: key %d allocated twice (blocks %d and %d)", k, prev, bi.Addr)
			return
		}
		live[k] = bi.Addr
	})
	if dup != nil {
		return dup
	}
	s.live = live
	return nil
}

// CheckInvariants probes for double allocation: fresh blocks handed out
// after recovery must not alias any block the recovered live set owns.
func (s *pallocSubject) CheckInvariants(recovered map[uint64]uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(recovered) != len(s.live) {
		return fmt.Errorf("palloc: recovered map has %d keys, live set has %d", len(recovered), len(s.live))
	}
	owned := make(map[nvm.Addr]bool, len(s.live))
	for _, b := range s.live {
		owned[b] = true
	}
	var fresh []nvm.Addr
	for i := 0; i < 8; i++ {
		b := s.al.Alloc(0, pallocTag)
		if owned[b] {
			return fmt.Errorf("palloc: fresh allocation %d aliases a live block", b)
		}
		fresh = append(fresh, b)
	}
	for _, b := range fresh {
		s.al.Free(b)
	}
	return nil
}
