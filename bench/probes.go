package main

import (
	"bytes"
	"fmt"

	"bdhtm/internal/bdhash"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
	"bdhtm/internal/wire"
)

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerCounts fills the per-layer counts: deltas of the layers' public
// Stats() over the traced pass (its trailing Sync included), per op.
func layerCounts(m map[string]float64, ps *pass, h handles) {
	ops := max(ps.ops, 1)
	n := ps.after.nvm.Sub(ps.before.nvm)
	m["nvm.flushes_per_op"] = ratio(n.Flushes, ops)
	m["nvm.fences_per_op"] = ratio(n.Fences, ops)
	m["nvm.media_bytes_per_op"] = ratio(n.MediaBytes, ops)
	m["nvm.useful_bytes_per_op"] = ratio(n.UsefulBytes, ops)
	m["nvm.line_writebacks_per_op"] = ratio(n.LineWritebacks, ops)

	t := ps.after.tm.Sub(ps.before.tm)
	m["htm.attempts_per_op"] = ratio(t.Attempts(), ops)
	m["htm.commit_ratio"] = t.CommitRate()
	m["htm.conflict_aborts_per_kop"] = 1000 * ratio(t.Conflict, ops)
	m["htm.capacity_aborts_per_kop"] = 1000 * ratio(t.Capacity, ops)
	m["htm.explicit_aborts_per_kop"] = 1000 * ratio(t.Explicit, ops)
	m["htm.fallback_acquires_per_kop"] = 1000 * ratio(t.FallbackAcquires, ops)
	m["htm.fallback_lines_per_acquire"] = ratio(t.FallbackLines, t.FallbackAcquires)
	m["htm.fallback_restarts_per_kop"] = 1000 * ratio(t.FallbackRestarts, ops)

	al := h.sys.Allocator()
	m["palloc.footprint_bytes"] = float64(al.FootprintBytes())
	m["palloc.live_bytes"] = float64(al.LiveBytes())
	m["palloc.live_blocks"] = float64(al.LiveBlocks())

	a, b := ps.after.ep, ps.before.ep
	adv := a.Advances - b.Advances
	m["epoch.advances_per_s"] = float64(adv) / ps.wall.Seconds()
	m["epoch.flushed_blocks_per_op"] = ratio(a.FlushedBlocks-b.FlushedBlocks, ops)
	m["epoch.retired_blocks_per_op"] = ratio(a.RetiredBlocks-b.RetiredBlocks, ops)
	m["epoch.freed_per_retired"] = ratio(a.FreedBlocks-b.FreedBlocks, a.RetiredBlocks-b.RetiredBlocks)
	m["epoch.backpressure_per_advance"] = ratio(a.Backpressure-b.Backpressure, adv)
	commits := a.EngineCommits - b.EngineCommits
	m["durability.fences_per_commit"] = ratio(a.EngineFences-b.EngineFences, commits)
	m["durability.flushes_per_commit"] = ratio(a.EngineFlushes-b.EngineFlushes, commits)
	m["durability.log_words_per_commit"] = ratio(a.EngineLogWords-b.EngineLogWords, commits)

	sa, sb := ps.after.srv, ps.before.srv
	m["bdserve.durable_acks_per_advance"] = ratio(sa.DurableAcks-sb.DurableAcks, adv)
	m["bdserve.ack_lag_epochs_max"] = float64(sa.MaxAckLag)
	m["bdserve.requests_per_write_commit"] = ratio(sa.Requests-sb.Requests, sa.WriteCommits-sb.WriteCommits)
	m["bdserve.applied_to_durable_ms"] = ps.a2d.quantile(0.5) / 1e6
	m["wire.bytes_per_op"] = ratio(ps.wireBytes, ops)
}

func drillMetrics(m map[string]float64, d *drillResult, served bool) {
	m["bdserve.recover_ready_s"] = 0
	if served {
		m["bdserve.recover_ready_s"] = median(d.times)
	}
	m["epoch.recover_scan_s"] = median(d.scan)
	m["epoch.recover_rebuild_s"] = median(d.rebuild)
	m["bdhash.rebuild_ns_per_block"] = 1e9 * median(d.rebuild) / float64(max(d.blocks, 1))
	m["bench.first_recover_s"] = d.first
}

// benchMetrics are the instrument's own diagnostics: the tails the host
// cannot repeat well enough to gate on, and what explains a moved number.
func benchMetrics(m map[string]float64, untraced, traced *pass) {
	m["bench.op_p90_us"] = untraced.lat.quantile(0.90) / 1e3
	m["bench.op_p99_us"] = untraced.lat.quantile(0.99) / 1e3
	m["bench.op_p999_us"] = untraced.lat.quantile(0.999) / 1e3
	m["bench.durable_p95_ms"] = untraced.durable.quantile(0.95) / 1e6
	m["bench.segment_iqr_pct"] = 100 * quartileSpread(untraced.allRates())
	m["bench.segments"] = float64(len(untraced.allRates()))
	m["bench.samples"] = float64(untraced.lat.n)
	m["bench.gc_cycles"] = float64(untraced.gc.cycles)
	m["bench.gc_pause_ms"] = float64(untraced.gc.pauseNS) / 1e6
	m["bench.trace_overhead_pct"] = 100 * (untraced.opsPerS() - traced.opsPerS()) / untraced.opsPerS()
}

// probeBatches: a probe's value is the median over this many batches.
const probeBatches = 16

// timeBatches runs f(i) in probeBatches batches of calls and reports the
// median nanoseconds per call. prep, if set, runs untimed before each batch.
func timeBatches(calls int, prep func(batch int), f func(i int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		if prep != nil {
			prep(b)
		}
		t0 := now()
		for i := b * calls; i < (b+1)*calls; i++ {
			f(i)
		}
		per[b] = float64(now()-t0) / float64(calls)
	}
	return median(per)
}

const (
	probeTag      = 0xfe
	scratchBlocks = 1 << 10
	scratchClass  = 6 // 256-word blocks: 31 whole payload lines each
	scratchLines  = 31
)

// probes times each layer's public calls in isolation, on the workload's
// own heap and epoch system (the one the drill left recovered, which
// advances only by hand) with addresses and keys drawn from the seed. They
// run last: what they allocate and store is never recovered again.
func probes(m map[string]float64, p *plan, s sut, traced *pass) error {
	h := s.handles()
	heap, sys, al := h.heap, h.sys, h.sys.Allocator()
	many, some, few := p.scaled(1<<16, 64), p.scaled(1<<14, 64), p.scaled(1<<12, 64)

	// A scratch region of line-aligned words inside allocated blocks.
	blocks := make([]nvm.Addr, scratchBlocks)
	for i := range blocks {
		blocks[i] = al.Alloc(scratchClass, probeTag)
	}
	line := func(x uint64) nvm.Addr {
		x = mix64(p.seed ^ x)
		b := blocks[x%scratchBlocks] + palloc.HeaderWords
		b += nvm.LineWords - b%nvm.LineWords // first whole line of the payload
		return b + nvm.Addr(x>>32%scratchLines)*nvm.LineWords
	}

	var sink uint64
	m["nvm.load_ns"] = timeBatches(many, nil, func(i int) { sink += heap.Load(line(uint64(i))) })
	m["nvm.store_ns"] = timeBatches(many, nil, func(i int) { heap.Store(line(uint64(i)), uint64(i)) })
	dirty := func(b int) {
		for i := b * few; i < (b+1)*few; i++ {
			heap.Store(line(uint64(i)), uint64(i))
		}
	}
	m["nvm.flush_ns"] = timeBatches(few, dirty, func(i int) { heap.Flush(line(uint64(i))) })
	m["nvm.fence_ns"] = timeBatches(few, nil, func(int) { heap.Fence() })
	exts := make([]nvm.Extent, few)
	m["nvm.flush_extents_ns_per_line"] = timeBatches(1, func(b int) {
		dirty(b)
		for i := range exts {
			exts[i] = nvm.Extent{Addr: line(uint64(b*few + i)), Words: nvm.LineWords}
		}
	}, func(int) { heap.FlushExtents(exts) }) / float64(few)

	// One transaction over the eight words of one line: the read set and
	// write set of a small structure op.
	tm := htm.New(htm.Config{})
	m["htm.attempt_r8_ns"] = timeBatches(some, nil, func(i int) {
		a := line(uint64(i))
		tm.Attempt(func(tx *htm.Tx) {
			for j := nvm.Addr(0); j < 8; j++ {
				sink += tx.LoadAddr(heap, a+j)
			}
		})
	})
	m["htm.attempt_r8w8_ns"] = timeBatches(some, nil, func(i int) {
		a := line(uint64(i))
		tm.Attempt(func(tx *htm.Tx) {
			for j := nvm.Addr(0); j < 8; j++ {
				tx.StoreAddr(heap, a+j, tx.LoadAddr(heap, a+j)+1)
			}
		})
	})

	m["palloc.alloc_free_ns"] = timeBatches(some, nil, func(int) { al.Free(al.Alloc(0, probeTag)) })

	w := sys.Register()
	m["epoch.op_bracket_ns"] = timeBatches(many, nil, func(int) { w.BeginOp(); w.EndOp() })
	// Listing 1 with no structure under it: bracket, preallocate, stamp the
	// block in one transaction, track it. The blocks tracked in each batch
	// are then flushed by two timed hand advances.
	var advances []float64
	tracked := 0
	advance := func(int) {
		if tracked >= 4*few {
			t0 := now()
			sys.AdvanceOnce()
			sys.AdvanceOnce()
			advances = append(advances, float64(now()-t0)/1e3/(float64(tracked)/1000))
			tracked = 0
		}
	}
	m["epoch.tracked_op_ns"] = timeBatches(few, advance, func(int) {
		e := w.BeginOp()
		b := w.NewKV(probeTag)
		w.Attempt(tm, func(tx *htm.Tx) { b.SetEpochTx(tx, e) })
		w.PTrack(b)
		w.EndOp()
		tracked++
	})
	advance(0)
	m["epoch.advance_us_per_kblock"] = median(advances)

	// Structure calls. The embedded traced pass timed them in place; a
	// server keeps its table private, so there a probe table on the server's
	// own heap and epoch system stands in.
	if h.srv == nil {
		m["bdhash.get_ns"] = traced.kindLat[opGet].quantile(0.5)
		m["bdhash.insert_ns"] = traced.kindLat[opPut].quantile(0.5)
		m["bdhash.remove_ns"] = traced.kindLat[opDel].quantile(0.5)
	} else {
		tab := bdhash.New(sys, tm, 4*probeBatches*few, probeTag) // the load factor the workload tables run at
		key := func(i int) uint64 { return mix64(p.seed + uint64(i)) }
		m["bdhash.insert_ns"] = timeBatches(few, nil, func(i int) { tab.Insert(w, key(i), uint64(i)) })
		m["bdhash.get_ns"] = timeBatches(few, nil, func(i int) {
			v, _ := tab.GetW(nil, key(i))
			sink += v
		})
		m["bdhash.remove_ns"] = timeBatches(few, nil, func(i int) { tab.Remove(w, key(i)) })
	}

	// Wire framing, no socket: encode a PUT, decode an applied ack.
	var buf []byte
	put := wire.Msg{Type: wire.CmdPut, ID: 1, Key: 2, Value: 3}
	m["wire.encode_ns"] = timeBatches(some, func(int) { buf = buf[:0] }, func(i int) {
		put.ID = uint64(i)
		buf, _ = wire.Append(buf, &put) // a PUT always encodes
	})
	var frames []byte
	for i := 0; i < some; i++ {
		frames, _ = wire.Append(frames, &wire.Msg{Type: wire.RespApplied, ID: uint64(i), OK: true, Epoch: 7})
	}
	var rd *wire.Reader
	var decodeErr error
	m["wire.decode_ns"] = timeBatches(some, func(int) { rd = wire.NewReader(bytes.NewReader(frames)) }, func(int) {
		if _, err := rd.Read(); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("wire decode probe: %w", decodeErr)
	}

	// Round trips at window 1 on the recovered server: the request path
	// with no batching and no structure contention.
	m["bdserve.rtt_get_us"], m["bdserve.rtt_put_applied_us"] = 0, 0
	if sv, ok := s.(*served); ok {
		c, err := dial(sv.addr, p, 1, false)
		if err != nil {
			return err
		}
		c.start(nil)
		defer c.close()
		for i := 0; i < 2*few; i++ {
			k := mix64(p.seed+uint64(i)) & (p.keyspace - 1)
			kind := opKind(i % 2) // get, put, get, put …
			if err := c.issue(kind, k, p.value(k, uint32(i))); err != nil {
				return fmt.Errorf("round-trip probe: %w", err)
			}
		}
		if err := c.drain(ackTimeout); err != nil {
			return fmt.Errorf("round-trip probe: %w", err)
		}
		m["bdserve.rtt_get_us"] = c.rx.kindLat[opGet].quantile(0.5) / 1e3
		m["bdserve.rtt_put_applied_us"] = c.rx.kindLat[opPut].quantile(0.5) / 1e3
	}
	m["bdserve.service_overhead_us"] = max(0, m["bdserve.rtt_put_applied_us"]-m["bdhash.insert_ns"]/1e3)
	probeSink = sink
	return nil
}

// probeSink keeps the probes' loads from being optimised away.
var probeSink uint64
