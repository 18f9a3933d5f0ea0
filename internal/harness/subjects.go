package harness

import (
	"fmt"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/skiplist"
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
	// builds (the TM, the heaps, the epoch system, the allocator), and
	// every session operation is timed onto it.
	Obs *obs.Recorder
	// Manual disables background epoch advancers on buffered-durable
	// subjects; epochs then advance only via the instance's Sync.
	// Deterministic stats tests use it to script exact flush counts.
	Manual bool
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

// heap builds the kind's persistent heap: ADR or eADR as the kind says,
// latency-modelled when asked, and no smaller than the kind's layout needs.
func (o Opts) heap(k kv.Kind) *nvm.Heap {
	cfg := nvm.Config{Words: max(o.heapWords(), k.MinHeapWords), Mode: k.Heap, CacheLines: o.CacheLines}
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
		EpochLength: o.EpochLength,
		Manual:      o.Manual,
		Obs:         o.Obs,
	}
}

// Instance is one kv stack under a display name (the kind's title unless
// an experiment relabels it). TM, Heap and Sys are nil where the kind has
// none.
type Instance struct {
	Name string
	*kv.Stack
}

// New builds the named kv kind scaled to o, with o.Obs attached to every
// component and timing every session operation.
func New(kind string, o Opts) *Instance {
	k, ok := kv.Lookup(kind)
	if !ok {
		panic(fmt.Sprintf("harness: unknown kind %q", kind))
	}
	o = o.withDefaults()
	p := kv.Parts{TM: o.tm(), Epoch: o.epochCfg(), KeySpace: o.KeySpace, Threads: 128}
	if k.Heap != nvm.ModeDRAM {
		p.Heap = o.heap(k)
	}
	st := kv.Open(kind, p)
	if o.Obs != nil {
		st.Store = timedStore{st.Store, o.Obs}
	}
	return &Instance{Name: k.Title, Stack: st}
}

// timedStore records each of its sessions' operations on rec: every
// harness operation runs on a session of Instance.Store, so each is timed
// once, whatever the structure does inside it.
type timedStore struct {
	kv.Store
	rec *obs.Recorder
}

func (s timedStore) NewSession() kv.Session { return timedSession{s.Store.NewSession(), s.rec} }

type timedSession struct {
	kv.Session
	rec *obs.Recorder
}

func (s timedSession) Insert(k, v uint64) bool {
	defer s.rec.EndOp(obs.OpInsert, k, s.rec.Now())
	return s.Session.Insert(k, v)
}

func (s timedSession) Remove(k uint64) bool {
	defer s.rec.EndOp(obs.OpRemove, k, s.rec.Now())
	return s.Session.Remove(k)
}

func (s timedSession) Get(k uint64) (uint64, bool) {
	defer s.rec.EndOp(obs.OpLookup, k, s.rec.Now())
	return s.Session.Get(k)
}

// DRAMBytes is the index memory of Table 3: a vEB tree's node pool, LB+Tree's
// inner nodes, a DRAM-indexed skiplist's towers; 0 for the rest.
func (i *Instance) DRAMBytes() int64 {
	switch t := i.Structure.(type) {
	case interface{ DRAMBytes() int64 }:
		return t.DRAMBytes()
	case *skiplist.List:
		if i.Kind.Index {
			return t.IndexAllocator().FootprintBytes()
		}
	}
	return 0
}

// NVMBytes is the NVM footprint of Table 3 and Fig. 8: the epoch system's
// allocator for a buffered kind, else whatever the structure accounts.
func (i *Instance) NVMBytes() int64 {
	if i.Sys != nil {
		return i.Sys.Allocator().FootprintBytes()
	}
	if t, ok := i.Structure.(interface{ NVMBytes() int64 }); ok {
		return t.NVMBytes()
	}
	return 0
}
