package crashfuzz

import (
	"fmt"
	"sync"

	"bdhtm/internal/bdhash"
	"bdhtm/internal/cceh"
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/lbtree"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
	"bdhtm/internal/skiplist"
	"bdhtm/internal/spash"
	"bdhtm/internal/veb"
)

func init() {
	register("bdhash", func() Subject { return &bdhashSubject{} })
	register("veb", func() Subject { return &vebSubject{} })
	register("skiplist", func() Subject { return &skiplistSubject{} })
	register("spash", func() Subject { return &spashSubject{} })
	register("cceh", func() Subject { return &ccehSubject{} })
	register("lbtree", func() Subject { return &lbtreeSubject{} })
	register("palloc", func() Subject { return &pallocSubject{} })
}

// recoverToErr converts a structure-level recovery panic (duplicate key,
// corrupt directory) into the error the checker reports as a finding.
func recoverToErr(name string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s: recovery panic: %v", name, r)
	}
}

// workerKV adapts the (worker, k, v) method shape shared by bdhash, veb
// and spash.
type workerKV struct {
	ins func(w *epoch.Worker, k, v uint64) bool
	rem func(w *epoch.Worker, k uint64) bool
	get func(k uint64) (uint64, bool)
	w   *epoch.Worker
}

func (h *workerKV) Insert(k, v uint64) bool     { return h.ins(h.w, k, v) }
func (h *workerKV) Remove(k uint64) bool        { return h.rem(h.w, k) }
func (h *workerKV) Get(k uint64) (uint64, bool) { return h.get(k) }
func (h *workerKV) LastWriteEpoch() uint64      { return h.w.OpEpoch() }

// strictKV adapts the plain (k, v) method shape shared by cceh and
// lbtree.
type strictKV struct {
	ins func(k, v uint64) bool
	rem func(k uint64) bool
	get func(k uint64) (uint64, bool)
}

func (h *strictKV) Insert(k, v uint64) bool     { return h.ins(k, v) }
func (h *strictKV) Remove(k uint64) bool        { return h.rem(k) }
func (h *strictKV) Get(k uint64) (uint64, bool) { return h.get(k) }
func (h *strictKV) LastWriteEpoch() uint64      { return 0 }

// --- bdhash -----------------------------------------------------------------

type bdhashSubject struct {
	env  Env
	heap *nvm.Heap
	sys  *epoch.System
	tab  *bdhash.Table
	hs   []Handle
	recs []epoch.BlockRecord // last Recover's rebuild records
}

func (s *bdhashSubject) Name() string           { return "bdhash" }
func (s *bdhashSubject) Durability() Durability { return Buffered }
func (s *bdhashSubject) MaxKeySpace() uint64    { return 1 << 40 }

func (s *bdhashSubject) Init(env Env) {
	s.env = env
	s.heap = env.NVMHeap()
	s.sys = epoch.New(s.heap, env.epochCfg())
	s.build(env.TM())
}

func (s *bdhashSubject) build(tm *htm.TM) {
	s.tab = bdhash.New(s.sys, tm, 1<<10, 1)
	s.hs = make([]Handle, s.env.Workers)
	for i := range s.hs {
		s.hs[i] = &workerKV{ins: s.tab.Insert, rem: s.tab.Remove, get: s.tab.Get, w: s.sys.Register()}
	}
}

func (s *bdhashSubject) Handle(i int) Handle         { return s.hs[i] }
func (s *bdhashSubject) Heap() *nvm.Heap             { return s.heap }
func (s *bdhashSubject) GlobalEpoch() uint64         { return s.sys.GlobalEpoch() }
func (s *bdhashSubject) PersistedEpoch() uint64      { return s.sys.PersistedEpoch() }
func (s *bdhashSubject) Advance()                    { s.env.advance(s.sys) }
func (s *bdhashSubject) Crash(opts nvm.CrashOptions) { s.sys.SimulateCrash(opts) }
func (s *bdhashSubject) Len() int                    { return s.tab.Len() }
func (s *bdhashSubject) LiveBlocks() int64           { return s.sys.Allocator().LiveBlocks() }

func (s *bdhashSubject) Recover() (err error) {
	defer recoverToErr("bdhash", &err)
	var recs []epoch.BlockRecord
	s.sys = epoch.Recover(s.heap, s.env.epochCfg(),
		func(r epoch.BlockRecord) { recs = append(recs, r) })
	s.recs = recs
	s.build(s.env.TM())
	for _, r := range recs {
		s.tab.RebuildBlock(r)
	}
	return nil
}

func (s *bdhashSubject) RecoveryRecords() []epoch.BlockRecord { return s.recs }

// --- veb (PHTM-vEB) ---------------------------------------------------------

const vebUniverseBits = 16

type vebSubject struct {
	env  Env
	heap *nvm.Heap
	sys  *epoch.System
	tree *veb.Tree
	hs   []Handle
	recs []epoch.BlockRecord // last Recover's rebuild records
}

func (s *vebSubject) Name() string           { return "veb" }
func (s *vebSubject) Durability() Durability { return Buffered }
func (s *vebSubject) MaxKeySpace() uint64    { return 1 << vebUniverseBits }

func (s *vebSubject) Init(env Env) {
	s.env = env
	s.heap = env.NVMHeap()
	s.sys = epoch.New(s.heap, env.epochCfg())
	s.build(env.TM())
}

func (s *vebSubject) build(tm *htm.TM) {
	s.tree = veb.New(veb.Config{UniverseBits: vebUniverseBits, TM: tm, DataSys: s.sys})
	s.hs = make([]Handle, s.env.Workers)
	for i := range s.hs {
		s.hs[i] = &workerKV{ins: s.tree.Insert, rem: s.tree.Remove, get: s.tree.Get, w: s.sys.Register()}
	}
}

func (s *vebSubject) Handle(i int) Handle         { return s.hs[i] }
func (s *vebSubject) Heap() *nvm.Heap             { return s.heap }
func (s *vebSubject) GlobalEpoch() uint64         { return s.sys.GlobalEpoch() }
func (s *vebSubject) PersistedEpoch() uint64      { return s.sys.PersistedEpoch() }
func (s *vebSubject) Advance()                    { s.env.advance(s.sys) }
func (s *vebSubject) Crash(opts nvm.CrashOptions) { s.sys.SimulateCrash(opts) }
func (s *vebSubject) Len() int                    { return s.tree.Len() }
func (s *vebSubject) LiveBlocks() int64           { return s.sys.Allocator().LiveBlocks() }

func (s *vebSubject) Recover() (err error) {
	defer recoverToErr("veb", &err)
	var recs []epoch.BlockRecord
	s.sys = epoch.Recover(s.heap, s.env.epochCfg(),
		func(r epoch.BlockRecord) { recs = append(recs, r) })
	s.recs = recs
	s.build(s.env.TM())
	for _, r := range recs {
		s.tree.RebuildBlock(r)
	}
	return nil
}

func (s *vebSubject) RecoveryRecords() []epoch.BlockRecord { return s.recs }

// --- skiplist (BDL) ---------------------------------------------------------

type skiplistSubject struct {
	env  Env
	heap *nvm.Heap
	sys  *epoch.System
	list *skiplist.List
	hs   []Handle
	recs []epoch.BlockRecord // last Recover's rebuild records
}

type skiplistHandle struct{ h *skiplist.Handle }

func (h *skiplistHandle) Insert(k, v uint64) bool     { return h.h.Insert(k, v) }
func (h *skiplistHandle) Remove(k uint64) bool        { return h.h.Remove(k) }
func (h *skiplistHandle) Get(k uint64) (uint64, bool) { return h.h.Get(k) }
func (h *skiplistHandle) LastWriteEpoch() uint64      { return h.h.Worker().OpEpoch() }

func (s *skiplistSubject) Name() string           { return "skiplist" }
func (s *skiplistSubject) Durability() Durability { return Buffered }
func (s *skiplistSubject) MaxKeySpace() uint64    { return 1 << 40 }

func (s *skiplistSubject) Init(env Env) {
	s.env = env
	s.heap = env.NVMHeap()
	s.sys = epoch.New(s.heap, env.epochCfg())
	s.build(env.TM())
}

func (s *skiplistSubject) build(tm *htm.TM) {
	s.list = skiplist.New(skiplist.Config{
		Variant:   skiplist.BDL,
		IndexHeap: s.env.DRAMHeap(),
		DataSys:   s.sys,
		TM:        tm,
		Threads:   s.env.Workers,
	})
	s.hs = make([]Handle, s.env.Workers)
	for i := range s.hs {
		s.hs[i] = &skiplistHandle{h: s.list.NewHandle()}
	}
}

func (s *skiplistSubject) Handle(i int) Handle         { return s.hs[i] }
func (s *skiplistSubject) Heap() *nvm.Heap             { return s.heap }
func (s *skiplistSubject) GlobalEpoch() uint64         { return s.sys.GlobalEpoch() }
func (s *skiplistSubject) PersistedEpoch() uint64      { return s.sys.PersistedEpoch() }
func (s *skiplistSubject) Advance()                    { s.env.advance(s.sys) }
func (s *skiplistSubject) Crash(opts nvm.CrashOptions) { s.sys.SimulateCrash(opts) }
func (s *skiplistSubject) Len() int                    { return s.list.Len() }
func (s *skiplistSubject) LiveBlocks() int64           { return s.sys.Allocator().LiveBlocks() }

func (s *skiplistSubject) Recover() (err error) {
	defer recoverToErr("skiplist", &err)
	var recs []epoch.BlockRecord
	s.sys = epoch.Recover(s.heap, s.env.epochCfg(),
		func(r epoch.BlockRecord) { recs = append(recs, r) })
	s.recs = recs
	s.build(s.env.TM())
	for _, r := range recs {
		s.list.RebuildBlock(r)
	}
	return nil
}

func (s *skiplistSubject) RecoveryRecords() []epoch.BlockRecord { return s.recs }

// --- spash (BD-Spash) -------------------------------------------------------

type spashSubject struct {
	env  Env
	heap *nvm.Heap
	sys  *epoch.System
	tab  *spash.Table
	hs   []Handle
	recs []epoch.BlockRecord // last Recover's rebuild records
}

func (s *spashSubject) Name() string           { return "spash" }
func (s *spashSubject) Durability() Durability { return Buffered }
func (s *spashSubject) MaxKeySpace() uint64    { return 1 << 40 }

func (s *spashSubject) Init(env Env) {
	s.env = env
	s.heap = env.NVMHeap()
	s.sys = epoch.New(s.heap, env.epochCfg())
	s.build(env.TM())
}

func (s *spashSubject) build(tm *htm.TM) {
	s.tab = spash.New(spash.Config{Mode: spash.ModeBD, Sys: s.sys, TM: tm})
	s.hs = make([]Handle, s.env.Workers)
	for i := range s.hs {
		s.hs[i] = &workerKV{ins: s.tab.Insert, rem: s.tab.Remove, get: s.tab.Get, w: s.sys.Register()}
	}
}

func (s *spashSubject) Handle(i int) Handle         { return s.hs[i] }
func (s *spashSubject) Heap() *nvm.Heap             { return s.heap }
func (s *spashSubject) GlobalEpoch() uint64         { return s.sys.GlobalEpoch() }
func (s *spashSubject) PersistedEpoch() uint64      { return s.sys.PersistedEpoch() }
func (s *spashSubject) Advance()                    { s.env.advance(s.sys) }
func (s *spashSubject) Crash(opts nvm.CrashOptions) { s.sys.SimulateCrash(opts) }
func (s *spashSubject) Len() int                    { return s.tab.Len() }
func (s *spashSubject) LiveBlocks() int64           { return s.sys.Allocator().LiveBlocks() }

func (s *spashSubject) Recover() (err error) {
	defer recoverToErr("spash", &err)
	var recs []epoch.BlockRecord
	s.sys = epoch.Recover(s.heap, s.env.epochCfg(),
		func(r epoch.BlockRecord) { recs = append(recs, r) })
	s.recs = recs
	s.build(s.env.TM())
	for _, r := range recs {
		s.tab.RebuildBlock(r)
	}
	return nil
}

func (s *spashSubject) RecoveryRecords() []epoch.BlockRecord { return s.recs }

// --- cceh (strict) ----------------------------------------------------------

type ccehSubject struct {
	env  Env
	heap *nvm.Heap
	tab  *cceh.Table
	hs   []Handle
}

func (s *ccehSubject) Name() string           { return "cceh" }
func (s *ccehSubject) Durability() Durability { return Strict }
func (s *ccehSubject) MaxKeySpace() uint64    { return 1 << 40 }

func (s *ccehSubject) Init(env Env) {
	s.env = env
	// CCEH pre-allocates a max-depth directory (1<<16 words); give it
	// room beyond the default fuzzing heap.
	if env.HeapWords < 1<<18 {
		env.HeapWords = 1 << 18
		s.env.HeapWords = 1 << 18
	}
	s.heap = env.NVMHeap()
	s.tab = cceh.New(s.heap, 2)
	s.mkHandles()
}

func (s *ccehSubject) mkHandles() {
	s.hs = make([]Handle, s.env.Workers)
	for i := range s.hs {
		s.hs[i] = &strictKV{ins: s.tab.Insert, rem: s.tab.Remove, get: s.tab.Get}
	}
}

func (s *ccehSubject) Handle(i int) Handle         { return s.hs[i] }
func (s *ccehSubject) Heap() *nvm.Heap             { return s.heap }
func (s *ccehSubject) GlobalEpoch() uint64         { return 0 }
func (s *ccehSubject) PersistedEpoch() uint64      { return 0 }
func (s *ccehSubject) Advance()                    {}
func (s *ccehSubject) Crash(opts nvm.CrashOptions) { s.heap.Crash(opts) }
func (s *ccehSubject) Len() int                    { return s.tab.Len() }
func (s *ccehSubject) LiveBlocks() int64           { return -1 }

func (s *ccehSubject) Recover() (err error) {
	defer recoverToErr("cceh", &err)
	s.tab = cceh.Recover(s.heap)
	s.mkHandles()
	return nil
}

// --- lbtree (strict) --------------------------------------------------------

type lbtreeSubject struct {
	env  Env
	heap *nvm.Heap
	tree *lbtree.Tree
	hs   []Handle
}

func (s *lbtreeSubject) Name() string           { return "lbtree" }
func (s *lbtreeSubject) Durability() Durability { return Strict }
func (s *lbtreeSubject) MaxKeySpace() uint64    { return 1 << 40 }

func (s *lbtreeSubject) Init(env Env) {
	s.env = env
	s.heap = env.NVMHeap()
	s.tree = lbtree.New(s.heap)
	s.mkHandles()
}

func (s *lbtreeSubject) mkHandles() {
	s.hs = make([]Handle, s.env.Workers)
	for i := range s.hs {
		s.hs[i] = &strictKV{ins: s.tree.Insert, rem: s.tree.Remove, get: s.tree.Get}
	}
}

func (s *lbtreeSubject) Handle(i int) Handle         { return s.hs[i] }
func (s *lbtreeSubject) Heap() *nvm.Heap             { return s.heap }
func (s *lbtreeSubject) GlobalEpoch() uint64         { return 0 }
func (s *lbtreeSubject) PersistedEpoch() uint64      { return 0 }
func (s *lbtreeSubject) Advance()                    {}
func (s *lbtreeSubject) Crash(opts nvm.CrashOptions) { s.heap.Crash(opts) }
func (s *lbtreeSubject) Len() int                    { return s.tree.Len() }
func (s *lbtreeSubject) LiveBlocks() int64           { return -1 }

func (s *lbtreeSubject) Recover() (err error) {
	defer recoverToErr("lbtree", &err)
	s.tree = lbtree.Recover(s.heap)
	s.mkHandles()
	return nil
}

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

func (s *pallocSubject) Handle(i int) Handle         { return &pallocHandle{s: s} }
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

func (h *pallocHandle) LastWriteEpoch() uint64 { return 0 }

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
