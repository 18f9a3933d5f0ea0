package crashfuzz

import "testing"

// Native Go fuzz targets: the input bytes decode to an op/advance/crash
// script (see ReplayBytes) driven through the subject adapters with full
// prefix checking after every crash. Run with e.g.
//
//	go test ./internal/crashfuzz -fuzz FuzzBDHash -fuzztime 30s
//
// A crasher minimized by the fuzzer lands in testdata/fuzz/ and replays
// as an ordinary test case from then on.

func fuzzSubject(f *testing.F, subject string) {
	// Seed corpus: checked-in files in testdata/fuzz/<Target>/ plus a
	// few inline shapes — inserts, removes, advances and crashes at
	// varying eviction fractions.
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08" + "\x01\x02\x03\x80\xa0\x42\x81\xbf"))
	f.Add([]byte("\x99\x88\x77\x66\x55\x44\x33\x22" + "\x01\x01\x80\x80\xa5\x02\xc1"))
	f.Add([]byte("\xff\xee\xdd\xcc\xbb\xaa\x00\x11" + "\x1f\x1e\x1d\x80\xbf\x41\x42\x80\xa0"))
	// Seed bit 5 = flusher step right after each advance (see
	// ReplayBytes); these exercise the eager schedule. Bit 4 once selected
	// four flusher shards and is no longer decoded.
	f.Add([]byte("\x10\x00\x00\x00\x00\x00\x00\x00" + "\x01\x02\x03\x04\x80\x05\x80\xbf\x06"))
	f.Add([]byte("\x30\x00\x00\x00\x00\x00\x00\x00" + "\x01\x02\x80\x42\x80\x80\xc1\x03\x80"))
	// Seed bits 6-8 select the durability engine (undo, redo4f, redo2f,
	// quadra); each shape crashes mid-stream so the engine's log replay
	// or rollback runs at recovery. testdata/fuzz/ carries named copies.
	f.Add([]byte("\x40\x00\x00\x00\x00\x00\x00\x00" + "\x01\x02\x03\x80\x41\x04\x80\xbf\x05\x80\xc0"))
	f.Add([]byte("\x80\x00\x00\x00\x00\x00\x00\x00" + "\x05\x06\x07\x80\x45\x08\x80\xa5\x09\x80\xc0"))
	f.Add([]byte("\xd0\x00\x00\x00\x00\x00\x00\x00" + "\x0a\x0b\x0c\x80\x4a\x0d\x80\x80\xbf\x0e\x80\xc0"))
	f.Add([]byte("\x00\x01\x00\x00\x00\x00\x00\x00" + "\x11\x12\x13\x80\x51\x14\x80\xb0\x15\x80\xc0"))
	// Seed bits 9-10 once selected the recovery scan's worker count and
	// are no longer decoded (see ReplayBytes): each shape persists inserts,
	// deletes some, and power-fails with full eviction so the recovery scan
	// sees resurrectable DELETED blocks. testdata/fuzz/ carries named
	// copies.
	f.Add([]byte("\x00\x02\x00\x00\x00\x00\x00\x00" + "\x01\x02\x03\x80\x80\x41\x42\xc1\x04\x80\xbf"))
	f.Add([]byte("\x00\x04\x00\x00\x00\x00\x00\x00" + "\x05\x06\x07\x08\x80\x80\x45\x46\xc0\x09\x80\xa8"))
	f.Add([]byte("\x00\x06\x00\x00\x00\x00\x00\x00" + "\x0a\x0b\x80\x80\x4a\xc0\x0c\x80\xc1"))
	f.Add([]byte("\x10\x02\x00\x00\x00\x00\x00\x00" + "\x11\x12\x13\x80\x80\x51\x52\xc0\x14\x80\xbf"))
	f.Add([]byte("\x40\x06\x00\x00\x00\x00\x00\x00" + "\x15\x16\x80\x80\x55\xc0\x17\x80\xc0"))
	// Insert/remove/crash scripts, alone and combined with pipelined
	// advances, recorded in pairs that differ in seed bit 11 (no longer
	// decoded; the bit still varies the heap/HTM RNG seed).
	// testdata/fuzz/ carries named copies.
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00" + "\x01\x02\x03\x80\x41\x04\x80\xbf\x05\x80\xc0"))
	f.Add([]byte("\x10\x00\x00\x00\x00\x00\x00\x00" + "\x05\x06\x07\x08\x80\x80\x45\x46\xc0\x09\x80\xa8"))
	f.Add([]byte("\x20\x04\x00\x00\x00\x00\x00\x00" + "\x0a\x0b\x80\x4a\x80\xc1\x0c\x80\xbf"))
	f.Add([]byte("\x00\x08\x00\x00\x00\x00\x00\x00" + "\x11\x12\x13\x80\x80\x51\x52\xc0\x14\x80\xbf"))
	f.Add([]byte("\x50\x08\x00\x00\x00\x00\x00\x00" + "\x15\x16\x80\x55\xc0\x17\x80\xa0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if fail := ReplayBytes(subject, data); fail != nil {
			t.Fatalf("%s", fail.Msg)
		}
	})
}

func FuzzBDHash(f *testing.F) { fuzzSubject(f, "bdhash") }

func FuzzVEB(f *testing.F) { fuzzSubject(f, "veb") }
