// Package kv states the repository's store contract once. Every keyed
// structure — the four buffered-durable (BDL) ones, their transient and
// eADR flavors, and the strict baselines — is opened through one table of
// kinds and used through one per-goroutine Session, so the benchmark
// harness, the crash fuzzer and the network service consume the same
// object instead of each wrapping the structures again.
//
// Callers hand in the components they size and seed themselves (Parts);
// kv wires them in the one order the paper's model prescribes: epoch
// system over the heap, structure over the system, and — in Recover, the
// only place that does it — Sec. 5.2's "scan headers at or below P, then
// rebuild the DRAM index from every surviving block".
package kv

import (
	"fmt"
	"math/bits"

	"bdhtm/internal/abtree"
	"bdhtm/internal/bdhash"
	"bdhtm/internal/cceh"
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/lbtree"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/plush"
	"bdhtm/internal/skiplist"
	"bdhtm/internal/spash"
	"bdhtm/internal/veb"
)

// Session is one goroutine's handle on a store (an epoch worker, a
// skiplist handle). Sessions of one store run concurrently; a single
// session does not.
type Session interface {
	// Insert is an upsert, reporting whether an existing value was replaced.
	Insert(k, v uint64) bool
	// Remove reports whether the key was present.
	Remove(k uint64) bool
	Get(k uint64) (uint64, bool)
	// Epoch is the epoch the session's last completed write committed in
	// (buffered kinds; 0 otherwise). Exact, not a bound: a restarted
	// operation reports the epoch it finally committed in.
	Epoch() uint64
	// SetSpan brackets one request with its sampled span (nil detaches),
	// so the HTM attempts the operation makes are counted on it. A no-op
	// on kinds with no epoch worker to carry it.
	SetSpan(sp *obs.Span)
}

// Store is a structure behind its sessions.
type Store interface {
	NewSession() Session
	Len() int
}

// Kind is the public half of one row of the table: what the kind is and
// which Parts it takes.
type Kind struct {
	Name  string
	Title string // the paper's name for it (figure legends, report rows)
	// Buffered kinds are BDL structures on the epoch system: Stack.Sys is
	// set, sessions report commit epochs, and Recover rebuilds them.
	Buffered bool
	// Heap is the mode Parts.Heap must be in. ModeDRAM means the kind
	// keeps nothing persistent and takes no Parts.Heap.
	Heap nvm.Mode
	// Index kinds keep their towers in a DRAM-mode heap that Open and
	// Recover create, as large as Parts.Heap (see indexHeap).
	Index bool
	// Bounded kinds accept only keys below Parts.KeySpace.
	Bounded bool
	// MinHeapWords is the smallest Parts.Heap the kind's fixed layout
	// fits in (0 = any).
	MinHeapWords int
}

// Parts are the components a caller builds for one stack. Fields a kind
// does not take (see Kind) are ignored.
type Parts struct {
	Heap     *nvm.Heap
	TM       *htm.TM
	Epoch    epoch.Config
	KeySpace uint64 // bdhash's capacity, veb's universe (rounded up to a power of two)
	Threads  int    // most sessions the caller will open (skiplist handles; 0 = 64)
}

// Stack is one opened (or recovered) kind: the parts it runs on, nil where
// the kind has none, and the store.
type Stack struct {
	Kind  Kind
	Heap  *nvm.Heap     // the persistent heap
	Sys   *epoch.System // buffered kinds
	TM    *htm.TM       // HTM kinds
	Store Store
	// Structure is the concrete structure (*veb.Tree, *skiplist.List, …)
	// for callers that need more than the contract: footprint accounting,
	// a test's Successor.
	Structure any
}

// Sync makes everything written so far durable (buffered kinds; the others
// persist as they go).
func (s *Stack) Sync() {
	if s.Sys != nil {
		s.Sys.Sync()
	}
}

// Close stops the epoch system's background goroutines, if any.
func (s *Stack) Close() {
	if s.Sys != nil {
		s.Sys.Stop()
	}
}

// Open builds a fresh stack of the named kind on p. It panics on a name
// that is not in the table; validate outside input with Lookup.
func Open(name string, p Parts) *Stack {
	k, st := stack(name, p)
	if k.Buffered {
		st.Sys = epoch.New(p.Heap, p.Epoch)
	}
	st.Structure, st.Store = k.build(p, st.Sys)
	return st
}

// Recover brings the named kind back up on p.Heap after a crash. For a
// buffered kind this is Sec. 5.2: the epoch system judges every block
// header against the persisted epoch, a fresh structure is built on the
// recovered system, and each survivor is replayed straight into it (the
// system's Stats count them and time the replay). Strict kinds run their
// own recovery. Structure-level findings (a duplicate key, a corrupt
// directory) panic.
func Recover(name string, p Parts) *Stack {
	k, st := stack(name, p)
	if !k.Buffered {
		if k.reopen == nil {
			panic(fmt.Sprintf("kv: kind %q has no recovery", name))
		}
		st.Structure, st.Store = k.reopen(p)
		return st
	}
	st.Sys = epoch.RecoverInto(p.Heap, p.Epoch, func(sys *epoch.System) func(epoch.BlockRecord) {
		st.Structure, st.Store = k.build(p, sys)
		return st.Structure.(interface{ RebuildBlock(epoch.BlockRecord) }).RebuildBlock
	})
	return st
}

// Lookup returns the named kind's description.
func Lookup(name string) (Kind, bool) {
	if k := find(name); k != nil {
		return k.Kind, true
	}
	return Kind{}, false
}

// BufferedKinds names the kinds Recover rebuilds from the epoch system —
// the ones a durable-acking service or a recovery tool can run.
func BufferedKinds() []string {
	var out []string
	for i := range kinds {
		if kinds[i].Buffered {
			out = append(out, kinds[i].Name)
		}
	}
	return out
}

// kind is one row of the table.
type kind struct {
	Kind
	tm bool // runs its operations on Parts.TM
	// build makes the structure on p (and on sys, for a buffered kind:
	// fresh from Open, recovered from Recover).
	build func(p Parts, sys *epoch.System) (any, Store)
	// reopen is a strict kind's own recovery from p.Heap.
	reopen func(p Parts) (any, Store)
}

func find(name string) *kind {
	for i := range kinds {
		if kinds[i].Name == name {
			return &kinds[i]
		}
	}
	return nil
}

// stack starts the named kind's Stack with the parts it takes from p.
func stack(name string, p Parts) (*kind, *Stack) {
	k := find(name)
	if k == nil {
		panic(fmt.Sprintf("kv: unknown kind %q", name))
	}
	st := &Stack{Kind: k.Kind}
	if k.Heap != nvm.ModeDRAM {
		st.Heap = p.Heap
	}
	if k.tm {
		st.TM = p.TM
	}
	return k, st
}

var kinds = []kind{
	{Kind: Kind{Name: "bdhash", Title: "BD-Hash (Listing 1)", Buffered: true}, tm: true,
		build: func(p Parts, sys *epoch.System) (any, Store) {
			t := bdhash.New(sys, p.TM, int(p.KeySpace), 1)
			return t, store{t.Len, func() Session { return &hashSession{t, sys.Register()} }}
		}},
	{Kind: Kind{Name: "veb", Title: "PHTM-vEB", Buffered: true, Bounded: true}, tm: true, build: buildVEB},
	{Kind: Kind{Name: "veb-transient", Title: "HTM-vEB", Heap: nvm.ModeDRAM, Bounded: true}, tm: true, build: buildVEB},
	skiplistKind("skiplist", skiplist.BDL, Kind{Buffered: true, Index: true}, true),
	skiplistKind("skiplist-dl", skiplist.DL, Kind{}, false),
	skiplistKind("skiplist-noflush", skiplist.PNoFlush, Kind{}, false),
	skiplistKind("skiplist-mwcas", skiplist.PHTMMwCAS, Kind{}, true),
	skiplistKind("skiplist-transient", skiplist.Transient, Kind{Heap: nvm.ModeDRAM, Index: true}, false),
	{Kind: Kind{Name: "spash", Title: "BD-Spash", Buffered: true}, tm: true,
		build: func(p Parts, sys *epoch.System) (any, Store) {
			return workerFirst(spash.New(spash.Config{Mode: spash.ModeBD, Sys: sys, TM: p.TM}), sys)
		}},
	{Kind: Kind{Name: "spash-eadr", Title: "Spash", Heap: nvm.ModeEADR}, tm: true,
		build: func(p Parts, _ *epoch.System) (any, Store) {
			return workerFirst(spash.New(spash.Config{Mode: spash.ModeEADR, Heap: p.Heap, TM: p.TM}), nil)
		}},
	// CCEH pre-allocates a max-depth directory (1<<16 words) and starts at
	// depth 2: four segments, doubling as they fill.
	{Kind: Kind{Name: "cceh", Title: "CCEH", MinHeapWords: 1 << 18},
		build:  func(p Parts, _ *epoch.System) (any, Store) { return plain(cceh.New(p.Heap, 2)) },
		reopen: func(p Parts) (any, Store) { return plain(cceh.Recover(p.Heap)) }},
	{Kind: Kind{Name: "lbtree", Title: "LB+Tree"},
		build:  func(p Parts, _ *epoch.System) (any, Store) { return plain(lbtree.New(p.Heap)) },
		reopen: func(p Parts) (any, Store) { return plain(lbtree.Recover(p.Heap)) }},
	{Kind: Kind{Name: "abtree-occ", Title: "OCC-Tree"},
		build: func(p Parts, _ *epoch.System) (any, Store) { return plain(abtree.New(p.Heap, false)) }},
	{Kind: Kind{Name: "abtree-elim", Title: "Elim-Tree"},
		build: func(p Parts, _ *epoch.System) (any, Store) { return plain(abtree.New(p.Heap, true)) }},
	// Plush's level geometry needs room; its sessions use the native
	// blind-write path, which reports nothing and keeps no live count.
	{Kind: Kind{Name: "plush", Title: "Plush", MinHeapWords: 1 << 22},
		build: func(p Parts, _ *epoch.System) (any, Store) {
			t := plush.New(p.Heap)
			return t, store{t.Len, func() Session { return plushSession{t} }}
		}},
}

// indexHeap is an Index kind's DRAM heap for its towers: as large as
// Parts.Heap or, for a kind that takes no Parts.Heap, 32 words per key of
// Parts.KeySpace and at least 2^21. A crash loses it, so Recover builds a
// fresh one.
func indexHeap(p Parts) *nvm.Heap {
	words := max(32*int(p.KeySpace), 1<<21)
	if p.Heap != nil {
		words = p.Heap.Words()
	}
	return nvm.New(nvm.Config{Words: words, Mode: nvm.ModeDRAM})
}

func buildVEB(p Parts, sys *epoch.System) (any, Store) {
	return workerFirst(veb.New(veb.Config{UniverseBits: uint8(bits.Len64(p.KeySpace - 1)), TM: p.TM, DataSys: sys}), sys)
}

func skiplistKind(name string, v skiplist.Variant, k Kind, tm bool) kind {
	k.Name, k.Title = name, v.String()
	return kind{Kind: k, tm: tm, build: func(p Parts, sys *epoch.System) (any, Store) {
		cfg := skiplist.Config{Variant: v, IndexHeap: p.Heap, DataSys: sys, TM: p.TM, Threads: p.Threads}
		if k.Index {
			cfg.IndexHeap = indexHeap(p)
		}
		l := skiplist.New(cfg)
		return l, store{l.Len, func() Session { return listSession{l.NewHandle()} }}
	}}
}

// store is the one Store: a structure's Len and its session factory.
type store struct {
	length func() int
	open   func() Session
}

func (s store) Len() int            { return s.length() }
func (s store) NewSession() Session { return s.open() }

// One session adapter per method shape.

// hashSession is bdhash's: the Listing-1 table routes its lookups through
// the worker too (GetW), so a request span sees them.
type hashSession struct {
	t *bdhash.Table
	w *epoch.Worker
}

func (s *hashSession) Insert(k, v uint64) bool     { return s.t.Insert(s.w, k, v) }
func (s *hashSession) Remove(k uint64) bool        { return s.t.Remove(s.w, k) }
func (s *hashSession) Get(k uint64) (uint64, bool) { return s.t.GetW(s.w, k) }
func (s *hashSession) Epoch() uint64               { return s.w.OpEpoch() }
func (s *hashSession) SetSpan(sp *obs.Span)        { s.w.SetSpan(sp) }

// workerTable is the worker-first shape of veb and spash; the worker is
// nil on their flavors with no epoch system.
type workerTable interface {
	Insert(w *epoch.Worker, k, v uint64) bool
	Remove(w *epoch.Worker, k uint64) bool
	Get(k uint64) (uint64, bool)
	Len() int
}

type workerSession struct {
	t workerTable
	w *epoch.Worker
}

func workerFirst(t workerTable, sys *epoch.System) (any, Store) {
	return t, store{t.Len, func() Session {
		if sys == nil {
			return &workerSession{t: t}
		}
		return &workerSession{t, sys.Register()}
	}}
}

func (s *workerSession) Insert(k, v uint64) bool     { return s.t.Insert(s.w, k, v) }
func (s *workerSession) Remove(k uint64) bool        { return s.t.Remove(s.w, k) }
func (s *workerSession) Get(k uint64) (uint64, bool) { return s.t.Get(k) }
func (s *workerSession) Epoch() uint64 {
	if s.w == nil {
		return 0
	}
	return s.w.OpEpoch()
}
func (s *workerSession) SetSpan(sp *obs.Span) {
	if s.w != nil {
		s.w.SetSpan(sp)
	}
}

// listSession is a skiplist handle, which already is a session.
type listSession struct{ *skiplist.Handle }

func (s listSession) Epoch() uint64 {
	if w := s.Worker(); w != nil {
		return w.OpEpoch()
	}
	return 0
}

// plainTable is the (k, v) shape of the lock-based baselines.
type plainTable interface {
	Insert(k, v uint64) bool
	Remove(k uint64) bool
	Get(k uint64) (uint64, bool)
	Len() int
}

type plainSession struct{ plainTable }

func plain(t plainTable) (any, Store) {
	return t, store{t.Len, func() Session { return plainSession{t} }}
}

func (plainSession) Epoch() uint64     { return 0 }
func (plainSession) SetSpan(*obs.Span) {}

type plushSession struct{ t *plush.Table }

func (s plushSession) Insert(k, v uint64) bool     { s.t.PutBlind(k, v); return false }
func (s plushSession) Remove(k uint64) bool        { s.t.RemoveBlind(k); return true }
func (s plushSession) Get(k uint64) (uint64, bool) { return s.t.Get(k) }
func (plushSession) Epoch() uint64                 { return 0 }
func (plushSession) SetSpan(*obs.Span)             {}
