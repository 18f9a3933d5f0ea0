package veb

import (
	"sync"
	"sync/atomic"
)

// Nodes live in DRAM, allocated from a chunked pool so that every node —
// and therefore every *uint64 the HTM instrumenting layer addresses —
// has a stable address for the tree's lifetime. Index 0 is reserved as
// nil. Nodes created inside a transaction that later aborts are leaked
// into the pool (HTM cannot roll back allocator state); the leak is
// bounded by the abort rate and noted in DESIGN.md.

const (
	chunkShift = 14
	chunkSize  = 1 << chunkShift
	maxChunks  = 1 << 12
)

// node is one vEB tree node. Mutable state is held in uint64 words that
// transactions access through the mem layer; bits/ubits and the slice
// headers are immutable after creation (nodes are published only by a
// committed store of their index into a parent's cluster slot).
type node struct {
	min     uint64 // smallest key in this node; EMPTY if none (internal)
	max     uint64 // largest key (internal)
	minVal  uint64 // value (or NVM block address) of min
	summary uint64 // node index of the summary structure
	bits    uint64 // presence bitmap (leaf nodes, universe <= 64)

	ubits    uint8    // log2 of this node's universe
	clusters []uint64 // child node indices (internal)
	leafVals []uint64 // per-key values (leaf)
}

// EMPTY marks an absent min/max.
const EMPTY = ^uint64(0)

type pool struct {
	mu     sync.Mutex
	chunks [maxChunks]*[chunkSize]node
	next   atomic.Uint64 // next free index; starts at 1 (0 = nil)
	bytes  atomic.Int64  // approximate DRAM consumption
}

func newPool() *pool {
	p := &pool{}
	p.next.Store(1)
	p.chunks[0] = new([chunkSize]node)
	p.bytes.Add(chunkSize * int64(nodeBaseBytes))
	return p
}

const nodeBaseBytes = 8*5 + 2*24 + 8 // fields + slice headers + padding

func (p *pool) node(idx uint64) *node {
	return &p.chunks[idx>>chunkShift][idx&(chunkSize-1)]
}

// alloc creates a node for a 2^ubits universe. Leaf nodes (ubits <= 6)
// get their value array; internal nodes get their cluster array. The
// node is unreachable until the caller publishes its index.
func (p *pool) alloc(ubits uint8) uint64 {
	idx := p.next.Add(1) - 1
	ci := idx >> chunkShift
	if ci >= maxChunks {
		panic("veb: node pool exhausted")
	}
	if p.chunks[ci] == nil {
		p.mu.Lock()
		if p.chunks[ci] == nil {
			c := new([chunkSize]node)
			p.bytes.Add(chunkSize * int64(nodeBaseBytes))
			p.chunks[ci] = c
		}
		p.mu.Unlock()
	}
	n := p.node(idx)
	n.ubits = ubits
	n.min = EMPTY
	n.max = EMPTY
	if ubits <= leafBits {
		n.leafVals = make([]uint64, uint64(1)<<ubits)
		p.bytes.Add(int64(uint64(8) << ubits))
	} else {
		high := ubits - ubits/2
		n.clusters = make([]uint64, uint64(1)<<high)
		p.bytes.Add(int64(uint64(8) << high))
	}
	return idx
}

// DRAMBytes returns the pool's approximate memory consumption — the
// number reported in the paper's Table 3.
func (p *pool) DRAMBytes() int64 { return p.bytes.Load() }
