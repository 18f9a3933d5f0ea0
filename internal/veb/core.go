package veb

import (
	"math/bits"

	"bdhtm/internal/htm"
)

// leafBits is the largest log-universe handled by a bitmap leaf (2^6 = 64
// keys per one-word bitmap).
const leafBits = 6

// mem abstracts the operation body's memory access from single-threaded
// access so the vEB recursion is written once. txMem routes through the
// body's htm.Tx, in whichever mode it runs (transaction or session);
// directMem is for single-threaded contexts like recovery and the discarded
// pre-walk (writes are published through the conflict-detection tables).
type mem interface {
	load(p *uint64) uint64
	store(p *uint64, v uint64)
}

type txMem struct{ tx *htm.Tx }

func (m txMem) load(p *uint64) uint64     { return m.tx.Load(p) }
func (m txMem) store(p *uint64, v uint64) { m.tx.Store(p, v) }

type directMem struct{ tm *htm.TM }

func (m directMem) load(p *uint64) uint64     { return m.tm.DirectLoad(p) }
func (m directMem) store(p *uint64, v uint64) { m.tm.DirectStore(p, v) }

// split decomposes key k in a 2^b universe into its cluster index (high
// bits) and in-cluster key (low bits). The low half has floor(b/2) bits,
// giving the square-root decomposition.
func split(b uint8, k uint64) (h, lo uint64) {
	low := b / 2
	return k >> low, k & (1<<low - 1)
}

func joinKeys(b uint8, h, lo uint64) uint64 {
	return h<<(b/2) | lo
}

// --- leaf (bitmap) helpers --------------------------------------------------

func (t *Tree) leafEmpty(m mem, n *node) bool { return m.load(&n.bits) == 0 }

func (t *Tree) leafMin(m mem, n *node) uint64 {
	return uint64(bits.TrailingZeros64(m.load(&n.bits)))
}

func (t *Tree) leafMax(m mem, n *node) uint64 {
	return uint64(63 - bits.LeadingZeros64(m.load(&n.bits)))
}

// --- generic node helpers ---------------------------------------------------

// empty reports whether the node holds no keys.
func (t *Tree) empty(m mem, n *node) bool {
	if n.ubits <= leafBits {
		return t.leafEmpty(m, n)
	}
	return m.load(&n.min) == EMPTY
}

// minKey returns the smallest key in a nonempty node.
func (t *Tree) minKey(m mem, n *node) uint64 {
	if n.ubits <= leafBits {
		return t.leafMin(m, n)
	}
	return m.load(&n.min)
}

// maxKey returns the largest key in a nonempty node.
func (t *Tree) maxKey(m mem, n *node) uint64 {
	if n.ubits <= leafBits {
		return t.leafMax(m, n)
	}
	return m.load(&n.max)
}

// child returns the cluster node index, or 0.
func (t *Tree) child(m mem, n *node, i uint64) uint64 {
	return m.load(&n.clusters[i])
}

// ensureChild returns the cluster node, creating it if missing.
func (t *Tree) ensureChild(m mem, n *node, i uint64) *node {
	if idx := m.load(&n.clusters[i]); idx != 0 {
		return t.pool.node(idx)
	}
	idx := t.pool.alloc(n.ubits / 2)
	m.store(&n.clusters[i], idx)
	return t.pool.node(idx)
}

// ensureSummary returns the summary node, creating it if missing.
func (t *Tree) ensureSummary(m mem, n *node) *node {
	if idx := m.load(&n.summary); idx != 0 {
		return t.pool.node(idx)
	}
	idx := t.pool.alloc(n.ubits - n.ubits/2)
	m.store(&n.summary, idx)
	return t.pool.node(idx)
}

// --- core recursion ----------------------------------------------------------

// insertRec inserts k with value v. If k is already present it returns
// the address of its value slot and inserted=false, leaving the tree
// unmodified; otherwise it returns (nil, true).
func (t *Tree) insertRec(m mem, n *node, k, v uint64) (slot *uint64, inserted bool) {
	if n.ubits <= leafBits {
		b := m.load(&n.bits)
		if b&(1<<k) != 0 {
			return &n.leafVals[k], false
		}
		m.store(&n.bits, b|1<<k)
		m.store(&n.leafVals[k], v)
		return nil, true
	}
	mn := m.load(&n.min)
	if mn == EMPTY {
		m.store(&n.min, k)
		m.store(&n.max, k)
		m.store(&n.minVal, v)
		return nil, true
	}
	if k == mn {
		return &n.minVal, false
	}
	if k < mn {
		// The new key becomes the node's min; the old min is pushed down.
		oldV := m.load(&n.minVal)
		m.store(&n.min, k)
		m.store(&n.minVal, v)
		k, v = mn, oldV
	}
	h, lo := split(n.ubits, k)
	c := t.ensureChild(m, n, h)
	if t.empty(m, c) {
		// O(1) empty-insert into the cluster plus one real recursion
		// into the summary — the doubly logarithmic structure.
		s := t.ensureSummary(m, n)
		t.insertRec(m, s, h, 0)
		t.emptyInsert(m, c, lo, v)
	} else {
		if slot, inserted = t.insertRec(m, c, lo, v); !inserted {
			return slot, false
		}
	}
	if k > m.load(&n.max) {
		m.store(&n.max, k)
	}
	return nil, true
}

// emptyInsert places the first key into an empty node in O(1).
func (t *Tree) emptyInsert(m mem, n *node, k, v uint64) {
	if n.ubits <= leafBits {
		m.store(&n.bits, 1<<k)
		m.store(&n.leafVals[k], v)
		return
	}
	m.store(&n.min, k)
	m.store(&n.max, k)
	m.store(&n.minVal, v)
}

// findSlot returns the address of k's value slot, or nil if absent.
func (t *Tree) findSlot(m mem, n *node, k uint64) *uint64 {
	for {
		if n.ubits <= leafBits {
			if m.load(&n.bits)&(1<<k) == 0 {
				return nil
			}
			return &n.leafVals[k]
		}
		mn := m.load(&n.min)
		if mn == EMPTY || k < mn {
			return nil
		}
		if k == mn {
			return &n.minVal
		}
		h, lo := split(n.ubits, k)
		ci := t.child(m, n, h)
		if ci == 0 {
			return nil
		}
		n, k = t.pool.node(ci), lo
	}
}

// removeRec deletes k, returning its value. ok is false if k was absent.
func (t *Tree) removeRec(m mem, n *node, k uint64) (val uint64, ok bool) {
	if n.ubits <= leafBits {
		b := m.load(&n.bits)
		if b&(1<<k) == 0 {
			return 0, false
		}
		m.store(&n.bits, b&^(1<<k))
		return m.load(&n.leafVals[k]), true
	}
	mn := m.load(&n.min)
	if mn == EMPTY || k < mn {
		return 0, false
	}
	if k == mn {
		val = m.load(&n.minVal)
		if mn == m.load(&n.max) {
			// Last key: the node becomes empty.
			m.store(&n.min, EMPTY)
			m.store(&n.max, EMPTY)
			return val, true
		}
		// Promote the next-smallest key to min, extracting its value by
		// deleting it from its cluster.
		s := t.pool.node(m.load(&n.summary))
		i := t.minKey(m, s)
		c := t.pool.node(t.child(m, n, i))
		newLow := t.minKey(m, c)
		v2, _ := t.removeRec(m, c, newLow)
		m.store(&n.min, joinKeys(n.ubits, i, newLow))
		m.store(&n.minVal, v2)
		t.afterClusterDelete(m, n, i, c, joinKeys(n.ubits, i, newLow))
		return val, true
	}
	h, lo := split(n.ubits, k)
	ci := t.child(m, n, h)
	if ci == 0 {
		return 0, false
	}
	c := t.pool.node(ci)
	val, ok = t.removeRec(m, c, lo)
	if !ok {
		return 0, false
	}
	t.afterClusterDelete(m, n, h, c, k)
	return val, true
}

// afterClusterDelete restores the summary and max invariants after a key
// (deletedKey, with cluster index i) was removed from cluster c.
func (t *Tree) afterClusterDelete(m mem, n *node, i uint64, c *node, deletedKey uint64) {
	if t.empty(m, c) {
		s := t.pool.node(m.load(&n.summary))
		t.removeRec(m, s, i)
	}
	if deletedKey == m.load(&n.max) {
		s := t.pool.node(m.load(&n.summary))
		if t.empty(m, s) {
			m.store(&n.max, m.load(&n.min))
		} else {
			j := t.maxKey(m, s)
			cj := t.pool.node(t.child(m, n, j))
			m.store(&n.max, joinKeys(n.ubits, j, t.maxKey(m, cj)))
		}
	}
}

// succRec returns the smallest key strictly greater than k, or EMPTY.
func (t *Tree) succRec(m mem, n *node, k uint64) uint64 {
	if n.ubits <= leafBits {
		b := m.load(&n.bits)
		if k >= 63 {
			return EMPTY
		}
		rest := b & ^(1<<(k+1) - 1)
		if rest == 0 {
			return EMPTY
		}
		return uint64(bits.TrailingZeros64(rest))
	}
	mn := m.load(&n.min)
	if mn != EMPTY && k < mn {
		return mn
	}
	if mn == EMPTY {
		return EMPTY
	}
	h, lo := split(n.ubits, k)
	if ci := t.child(m, n, h); ci != 0 {
		c := t.pool.node(ci)
		if !t.empty(m, c) && lo < t.maxKey(m, c) {
			return joinKeys(n.ubits, h, t.succRec(m, c, lo))
		}
	}
	si := m.load(&n.summary)
	if si == 0 {
		return EMPTY
	}
	j := t.succRec(m, t.pool.node(si), h)
	if j == EMPTY {
		return EMPTY
	}
	cj := t.pool.node(t.child(m, n, j))
	return joinKeys(n.ubits, j, t.minKey(m, cj))
}
