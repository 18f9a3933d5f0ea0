package harness

import (
	"math/bits"
	"time"

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

// Opts scales a subject to an experiment.
type Opts struct {
	// KeySpace is the size of the key universe.
	KeySpace uint64
	// Latency enables the Optane latency model on NVM heaps (and leaves
	// DRAM-mode heaps free), reproducing the paper's NVM/DRAM asymmetry.
	Latency bool
	// EpochLength for buffered-durable subjects (default 50ms).
	EpochLength time.Duration
	// CacheLines bounds the simulated cache (0 = unbounded).
	CacheLines int
	// HeapWords overrides the computed NVM heap size.
	HeapWords int
	// MemTypeRate injects the Fig. 2 MEMTYPE anomaly into HTM subjects.
	MemTypeRate float64
	// Obs, when non-nil, is attached to every component the subject
	// builds: the TM, the heaps, the epoch system, the allocator, and
	// the structure's op hot paths all record onto it.
	Obs *obs.Recorder
	// Manual disables background epoch advancers on buffered-durable
	// subjects; epochs then advance only via the instance's Sync hook.
	// Deterministic stats tests use it to script exact flush counts.
	Manual bool
	// EpochShards widths the epoch system's persistence path (parallel
	// flush fan-out + sharded allocator magazines). 0/1 = serial.
	EpochShards int
	// Engine selects the durability engine for buffered-durable subjects
	// ("" = the default BDL epoch engine; see durability.Names).
	Engine string
	// RecoveryWorkers partitions the recovery header scan across this
	// many goroutines (0/1 = serial; see epoch.Config.RecoveryWorkers).
	RecoveryWorkers int
}

func (o Opts) withDefaults() Opts {
	if o.KeySpace == 0 {
		o.KeySpace = 1 << 16
	}
	if o.EpochLength == 0 {
		o.EpochLength = 50 * time.Millisecond
	}
	return o
}

func (o Opts) heapWords() int {
	if o.HeapWords != 0 {
		return o.HeapWords
	}
	w := int(o.KeySpace) * 32
	if w < 1<<21 {
		w = 1 << 21
	}
	return w
}

func (o Opts) nvmHeap() *nvm.Heap {
	cfg := nvm.Config{Words: o.heapWords(), CacheLines: o.CacheLines}
	if o.Latency {
		cfg.Latency = nvm.OptaneProfile
	}
	h := nvm.New(cfg)
	h.SetObs(o.Obs)
	return h
}

func (o Opts) dramHeap() *nvm.Heap {
	return nvm.New(nvm.Config{Words: o.heapWords(), Mode: nvm.ModeDRAM})
}

func (o Opts) eadrHeap() *nvm.Heap {
	cfg := nvm.Config{Words: o.heapWords(), Mode: nvm.ModeEADR, CacheLines: o.CacheLines}
	if o.Latency {
		cfg.Latency = nvm.OptaneProfile
	}
	h := nvm.New(cfg)
	h.SetObs(o.Obs)
	return h
}

func (o Opts) tm() *htm.TM {
	tm := htm.New(htm.Config{MemTypeRate: o.MemTypeRate, PreWalkResidualRate: o.MemTypeRate / 10})
	tm.SetObs(o.Obs)
	return tm
}

func (o Opts) epochCfg() epoch.Config {
	return epoch.Config{
		EpochLength:     o.EpochLength,
		Manual:          o.Manual,
		Shards:          o.EpochShards,
		Engine:          o.Engine,
		RecoveryWorkers: o.RecoveryWorkers,
		Obs:             o.Obs,
	}
}

func (o Opts) universeBits() uint8 {
	return uint8(bits.Len64(o.KeySpace - 1))
}

// --- vEB trees (Sec. 4.1) ---------------------------------------------------

type vebMap struct {
	t *veb.Tree
	w *epoch.Worker
}

func (m vebMap) Insert(k, v uint64) bool     { return m.t.Insert(m.w, k, v) }
func (m vebMap) Remove(k uint64) bool        { return m.t.Remove(m.w, k) }
func (m vebMap) Get(k uint64) (uint64, bool) { return m.t.Get(k) }

// NewHTMvEB builds the transient HTM-vEB tree.
func NewHTMvEB(o Opts) *Instance {
	o = o.withDefaults()
	tm := o.tm()
	t := veb.New(veb.Config{UniverseBits: o.universeBits(), TM: tm})
	t.SetObs(o.Obs)
	return &Instance{
		Name:      "HTM-vEB",
		NewHandle: func() Map { return vebMap{t: t} },
		Close:     func() {},
		TMStats:   tm.Stats,
		DRAMBytes: t.DRAMBytes,
	}
}

// NewPHTMvEB builds the buffered-durable PHTM-vEB tree.
func NewPHTMvEB(o Opts) *Instance {
	o = o.withDefaults()
	tm := o.tm()
	h := o.nvmHeap()
	sys := epoch.New(h, o.epochCfg())
	t := veb.New(veb.Config{UniverseBits: o.universeBits(), TM: tm, DataSys: sys})
	t.SetObs(o.Obs)
	return &Instance{
		Name:       "PHTM-vEB",
		NewHandle:  func() Map { return vebMap{t: t, w: sys.Register()} },
		Close:      sys.Stop,
		TMStats:    tm.Stats,
		NVMStats:   h.Stats,
		EpochStats: sys.Stats,
		DRAMBytes:  t.DRAMBytes,
		NVMBytes:   sys.Allocator().FootprintBytes,
		Sync:       sys.Sync,
	}
}

// --- persistent tree baselines (Fig. 3, Table 3) -----------------------------

type funcMap struct {
	ins func(k, v uint64) bool
	rem func(k uint64) bool
	get func(k uint64) (uint64, bool)
}

func (m funcMap) Insert(k, v uint64) bool     { return m.ins(k, v) }
func (m funcMap) Remove(k uint64) bool        { return m.rem(k) }
func (m funcMap) Get(k uint64) (uint64, bool) { return m.get(k) }

// NewLBTree builds the LB+Tree baseline.
func NewLBTree(o Opts) *Instance {
	o = o.withDefaults()
	h := o.nvmHeap()
	t := lbtree.New(h)
	t.SetObs(o.Obs)
	return &Instance{
		Name:      "LB+Tree",
		NewHandle: func() Map { return funcMap{t.Insert, t.Remove, t.Get} },
		Close:     func() {},
		NVMStats:  h.Stats,
		DRAMBytes: t.DRAMBytes,
		NVMBytes:  t.NVMBytes,
	}
}

// NewOCCTree builds the OCC-ABTree baseline.
func NewOCCTree(o Opts) *Instance {
	o = o.withDefaults()
	h := o.nvmHeap()
	t := abtree.New(h, false)
	t.SetObs(o.Obs)
	return &Instance{
		Name:      "OCC-Tree",
		NewHandle: func() Map { return funcMap{t.Insert, t.Remove, t.Get} },
		Close:     func() {},
		NVMStats:  h.Stats,
		NVMBytes:  t.NVMBytes,
	}
}

// NewElimTree builds the Elim-ABTree baseline.
func NewElimTree(o Opts) *Instance {
	o = o.withDefaults()
	h := o.nvmHeap()
	t := abtree.New(h, true)
	t.SetObs(o.Obs)
	return &Instance{
		Name:      "Elim-Tree",
		NewHandle: func() Map { return funcMap{t.Insert, t.Remove, t.Get} },
		Close:     func() {},
		NVMStats:  h.Stats,
		NVMBytes:  t.NVMBytes,
	}
}

// --- skiplists (Sec. 4.2, Fig. 5) --------------------------------------------

type slMap struct{ h *skiplist.Handle }

func (m slMap) Insert(k, v uint64) bool     { return m.h.Insert(k, v) }
func (m slMap) Remove(k uint64) bool        { return m.h.Remove(k) }
func (m slMap) Get(k uint64) (uint64, bool) { return m.h.Get(k) }

// NewSkiplist builds any of the five Fig. 5 skiplist variants.
func NewSkiplist(v skiplist.Variant, o Opts) *Instance {
	o = o.withDefaults()
	cfg := skiplist.Config{Variant: v, Threads: 128}
	inst := &Instance{Name: v.String(), Close: func() {}}
	switch v {
	case skiplist.DL, skiplist.PNoFlush:
		cfg.IndexHeap = o.nvmHeap()
		inst.NVMStats = cfg.IndexHeap.Stats
	case skiplist.PHTMMwCAS:
		cfg.IndexHeap = o.nvmHeap()
		inst.NVMStats = cfg.IndexHeap.Stats
		cfg.TM = o.tm()
		inst.TMStats = cfg.TM.Stats
	case skiplist.Transient:
		cfg.IndexHeap = o.dramHeap()
	case skiplist.BDL:
		cfg.IndexHeap = o.dramHeap()
		cfg.TM = o.tm()
		nh := o.nvmHeap()
		sys := epoch.New(nh, o.epochCfg())
		cfg.DataSys = sys
		inst.Close = sys.Stop
		inst.Sync = sys.Sync
		inst.NVMStats = nh.Stats
		inst.EpochStats = sys.Stats
		inst.NVMBytes = sys.Allocator().FootprintBytes
		inst.TMStats = cfg.TM.Stats
	}
	l := skiplist.New(cfg)
	l.SetObs(o.Obs)
	inst.NewHandle = func() Map { return slMap{h: l.NewHandle()} }
	inst.DRAMBytes = func() int64 {
		if v == skiplist.BDL || v == skiplist.Transient {
			return l.IndexAllocator().FootprintBytes()
		}
		return 0
	}
	return inst
}

// --- hash tables (Sec. 4.3, Fig. 6) ------------------------------------------

type spashMap struct {
	t *spash.Table
	w *epoch.Worker
}

func (m spashMap) Insert(k, v uint64) bool     { return m.t.Insert(m.w, k, v) }
func (m spashMap) Remove(k uint64) bool        { return m.t.Remove(m.w, k) }
func (m spashMap) Get(k uint64) (uint64, bool) { return m.t.Get(k) }

// NewSpash builds Spash on a simulated eADR machine.
func NewSpash(o Opts) *Instance {
	o = o.withDefaults()
	tm := o.tm()
	h := o.eadrHeap()
	t := spash.New(spash.Config{Mode: spash.ModeEADR, Heap: h, TM: tm})
	t.SetObs(o.Obs)
	return &Instance{
		Name:      "Spash",
		NewHandle: func() Map { return spashMap{t: t} },
		Close:     func() {},
		TMStats:   tm.Stats,
		NVMStats:  h.Stats,
	}
}

// NewBDSpash builds BD-Spash on a conventional ADR machine.
func NewBDSpash(o Opts) *Instance {
	o = o.withDefaults()
	tm := o.tm()
	h := o.nvmHeap()
	sys := epoch.New(h, o.epochCfg())
	t := spash.New(spash.Config{Mode: spash.ModeBD, Sys: sys, TM: tm})
	t.SetObs(o.Obs)
	return &Instance{
		Name:       "BD-Spash",
		NewHandle:  func() Map { return spashMap{t: t, w: sys.Register()} },
		Close:      sys.Stop,
		TMStats:    tm.Stats,
		NVMStats:   h.Stats,
		EpochStats: sys.Stats,
		NVMBytes:   sys.Allocator().FootprintBytes,
		Sync:       sys.Sync,
	}
}

// NewCCEH builds the CCEH baseline.
func NewCCEH(o Opts) *Instance {
	o = o.withDefaults()
	h := o.nvmHeap()
	t := cceh.New(h, 4)
	t.SetObs(o.Obs)
	return &Instance{
		Name:      "CCEH",
		NewHandle: func() Map { return funcMap{t.Insert, t.Remove, t.Get} },
		Close:     func() {},
		NVMStats:  h.Stats,
	}
}

// NewPlush builds the Plush baseline. Inserts and removes use Plush's
// native blind-write fast path.
func NewPlush(o Opts) *Instance {
	o = o.withDefaults()
	words := o.heapWords()
	if words < 1<<22 {
		words = 1 << 22 // level geometry needs room
	}
	cfg := nvm.Config{Words: words, CacheLines: o.CacheLines}
	if o.Latency {
		cfg.Latency = nvm.OptaneProfile
	}
	h := nvm.New(cfg)
	h.SetObs(o.Obs)
	t := plush.New(h)
	t.SetObs(o.Obs)
	return &Instance{
		Name:     "Plush",
		NVMStats: h.Stats,
		NewHandle: func() Map {
			return funcMap{
				ins: func(k, v uint64) bool { t.PutBlind(k, v); return false },
				rem: func(k uint64) bool { t.RemoveBlind(k); return true },
				get: t.Get,
			}
		},
		Close: func() {},
	}
}

// --- tutorial structure ------------------------------------------------------

type bdhashMap struct {
	t *bdhash.Table
	w *epoch.Worker
}

func (m bdhashMap) Insert(k, v uint64) bool     { return m.t.Insert(m.w, k, v) }
func (m bdhashMap) Remove(k uint64) bool        { return m.t.Remove(m.w, k) }
func (m bdhashMap) Get(k uint64) (uint64, bool) { return m.t.Get(k) }

// NewBDHash builds the Listing-1 hash table.
func NewBDHash(o Opts) *Instance {
	o = o.withDefaults()
	tm := o.tm()
	h := o.nvmHeap()
	sys := epoch.New(h, o.epochCfg())
	t := bdhash.New(sys, tm, int(o.KeySpace), 1)
	t.SetObs(o.Obs)
	return &Instance{
		Name:       "BD-Hash (Listing 1)",
		NewHandle:  func() Map { return bdhashMap{t: t, w: sys.Register()} },
		Close:      sys.Stop,
		TMStats:    tm.Stats,
		NVMStats:   h.Stats,
		EpochStats: sys.Stats,
		Sync:       sys.Sync,
	}
}
