package epoch

import (
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// Block is a handle to an epoch-managed NVM block. The zero Block is nil.
//
// Every block carries a durable header with an epoch number recording when
// it was created or last modified. The BDL update discipline (Sec. 3):
//
//   - epoch == op epoch: the block may be updated in place;
//   - epoch < op epoch: the block must be replaced out-of-place (new block
//   - PRetire of the old one) so that recovery can roll back to it;
//   - epoch > op epoch: the operation is too old — abort the transaction
//     with OldSeeNewCode, AbortOp, and restart in the current epoch.
type Block struct {
	sys  *System
	addr nvm.Addr
}

// IsNil reports whether the handle is empty.
func (b Block) IsNil() bool { return b.addr.IsNil() }

// Addr returns the block's heap address (of its header word). Addresses
// are how structures store references to blocks inside other NVM words or
// DRAM indexes.
func (b Block) Addr() nvm.Addr { return b.addr }

// BlockAt reconstructs a handle from a stored address.
func (s *System) BlockAt(a nvm.Addr) Block { return Block{sys: s, addr: a} }

// Epoch reads the block's epoch number non-transactionally.
func (b Block) Epoch() uint64 {
	return palloc.UnpackHeader(b.sys.heap.Load(b.addr)).Epoch
}

// EpochTx reads the block's epoch number inside a transaction, adding the
// header to the transaction's read set (Listing 1, line 21). Like every
// *Tx accessor it serves the body in both of its modes: in a session the
// header's line is locked for the rest of the session instead.
func (b Block) EpochTx(tx *htm.Tx) uint64 {
	return palloc.UnpackHeader(tx.LoadAddr(b.sys.heap, b.addr)).Epoch
}

// SetEpochTx stamps the block with an epoch inside a transaction
// (Listing 1, line 17). The stamp must happen before the operation's
// linearization point so that concurrent readers can classify the block.
func (b Block) SetEpochTx(tx *htm.Tx, e uint64) {
	hdr := palloc.UnpackHeader(tx.LoadAddr(b.sys.heap, b.addr))
	hdr.Epoch = e
	tx.StoreAddr(b.sys.heap, b.addr, hdr.Pack())
}

// ResetEpoch non-transactionally resets the block's epoch to invalid.
// Per the Sec. 5 guidelines, a preallocated block whose previous attempt
// was interrupted must be re-invalidated when the operation restarts; this
// is safe because the block is not yet visible to other threads.
func (b Block) ResetEpoch() {
	hdr := palloc.UnpackHeader(b.sys.heap.Load(b.addr))
	hdr.Epoch = palloc.InvalidEpoch
	b.sys.heap.Store(b.addr, hdr.Pack())
}

// Tag returns the 8-bit user tag the block was allocated with. Structures
// sharing one heap use tags to find their own blocks during recovery.
func (b Block) Tag() uint8 {
	return palloc.UnpackHeader(b.sys.heap.Load(b.addr)).Tag
}

// PayloadWords returns the block's usable payload size in words.
func (b Block) PayloadWords() int {
	return palloc.PayloadWords(palloc.UnpackHeader(b.sys.heap.Load(b.addr)).Class)
}

// Payload returns the heap address of payload word i.
func (b Block) Payload(i int) nvm.Addr { return palloc.Payload(b.addr) + nvm.Addr(i) }

// Load reads payload word i non-transactionally.
func (b Block) Load(i int) uint64 { return b.sys.heap.Load(b.Payload(i)) }

// Store writes payload word i non-transactionally. Use only on blocks not
// yet visible to other threads (initialization, Listing 1 line 12).
func (b Block) Store(i int, v uint64) { b.sys.heap.Store(b.Payload(i), v) }

// LoadTx reads payload word i inside a transaction.
func (b Block) LoadTx(tx *htm.Tx, i int) uint64 {
	return tx.LoadAddr(b.sys.heap, b.Payload(i))
}

// StoreTx writes payload word i inside a transaction. This is pSet for
// in-place updates of current-epoch blocks (Listing 1 line 29): the write
// becomes visible at commit, and the caller must PTrack the block again
// after the commit: an early pass (early.go) may already have written the
// block back, before this store, on its first tracking.
func (b Block) StoreTx(tx *htm.Tx, i int, v uint64) {
	tx.StoreAddr(b.sys.heap, b.Payload(i), v)
}

// --- KV convenience -------------------------------------------------------
//
// Most structures in the paper persist 8-byte-key/8-byte-value records.
// A KV block stores the key in payload word 0 and the value in word 1.

// KVPayloadWords is the payload size of a KV block.
const KVPayloadWords = 2

// NewKV preallocates a KV block with an invalid epoch (Listing 1 line 10).
func (w *Worker) NewKV(tag uint8) Block {
	return w.PNew(KVPayloadWords, tag)
}

// Key reads the key non-transactionally.
func (b Block) Key() uint64 { return b.Load(0) }

// Value reads the value non-transactionally.
func (b Block) Value() uint64 { return b.Load(1) }

// KeyTx reads the key transactionally.
func (b Block) KeyTx(tx *htm.Tx) uint64 { return b.LoadTx(tx, 0) }

// ValueTx reads the value transactionally.
func (b Block) ValueTx(tx *htm.Tx) uint64 { return b.LoadTx(tx, 1) }

// SetValueTx updates the value in place transactionally (pSet). Only legal
// when the block's epoch equals the operation's epoch; like StoreTx it
// needs a PTrack after the commit.
func (b Block) SetValueTx(tx *htm.Tx, v uint64) { b.StoreTx(tx, 1, v) }
