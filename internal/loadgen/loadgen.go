// Package loadgen drives a bdserve instance over the wire protocol:
// closed-loop (windowed) YCSB A–D and F workloads on N connections, with
// full ack bookkeeping. Op streams are a pure function of (seed, connection
// index, op index), whatever the window, so any server-side anomaly found
// under load replays exactly from the same Config.
package loadgen

import (
	"fmt"
	"net"
	"sync"
	"time"

	"bdhtm/internal/obs"
	"bdhtm/internal/wire"
	"bdhtm/internal/ycsb"
)

// Config shapes one load-generation run.
type Config struct {
	Addr  string
	Conns int
	// Ops is the per-connection op count.
	Ops int
	// Pipeline is the window of outstanding requests per connection
	// (default 8): a new request is sent when a previous one completes.
	Pipeline int
	// Workload is a YCSB letter (A–D, F); empty uses Mix directly.
	Workload string
	Mix      ycsb.Mix
	// KeySpace bounds the uniformly drawn keys.
	KeySpace uint64
	Seed     uint64
	// WaitDurable holds a write's window slot until its durable ack, the
	// synchronous-persistence discipline; otherwise the slot is released
	// at the applied ack. The server sends both acks either way.
	WaitDurable bool
	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 8
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 12
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Workload != "" {
		mix, ok := ycsb.WorkloadMix(c.Workload)
		if !ok {
			return c, fmt.Errorf("loadgen: unknown workload %q", c.Workload)
		}
		c.Mix = mix
	}
	return c, nil
}

// Op is one planned request. ID encodes (connection, index) so acks are
// attributable and the ID sequence is deterministic.
type Op struct {
	ID    uint64
	Kind  ycsb.OpKind
	Key   uint64
	Value uint64
}

// OpID is the deterministic request ID of op i on connection conn (both
// 0-based).
func OpID(conn, i int) uint64 {
	return uint64(conn+1)<<32 | uint64(i+1)
}

// Plan returns connection conn's full op stream. It depends only on
// (cfg.Seed, the workload, cfg.KeySpace, conn) — never on Pipeline —
// which is the determinism contract the replay tests pin.
func Plan(cfg Config, conn int) ([]Op, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := ycsb.NewUniform(cfg.KeySpace, cfg.Mix, cfg.Seed+uint64(conn)*0x9e3779b97f4a7c15)
	ops := make([]Op, cfg.Ops)
	for i := range ops {
		kind, k, v := g.Next() // v is 0 but for an insert
		ops[i] = Op{ID: OpID(conn, i), Kind: kind, Key: k, Value: v}
	}
	return ops, nil
}

func (o Op) wireMsg() wire.Msg {
	switch o.Kind {
	case ycsb.OpRead:
		return wire.Msg{Type: wire.CmdGet, ID: o.ID, Key: o.Key}
	case ycsb.OpInsert:
		return wire.Msg{Type: wire.CmdPut, ID: o.ID, Key: o.Key, Value: o.Value}
	default:
		return wire.Msg{Type: wire.CmdDel, ID: o.ID, Key: o.Key}
	}
}

// Result is the run's aggregate ledger.
type Result struct {
	Ops    int64
	Reads  int64
	Writes int64

	AppliedAcks int64
	DurableAcks int64
	// DupAcks counts acks for IDs already finally acked, and durable
	// acks that arrived before their applied ack — both must be zero
	// against a correct server.
	DupAcks int64
	Errors  int64

	Elapsed  time.Duration
	NetP50NS int64
	NetP99NS int64

	// GapP50NS/GapP99NS are the client-observed applied→durable gap for
	// writes — the buffered-durability window as the network sees it.
	GapP50NS int64
	GapP99NS int64
}

// Verify is the ack-ledger gate of a run that planned want ops in all:
// every op completed, no ack was duplicated, reordered or refused, every
// write got its applied and its durable ack, and the server's ledger (its
// STATS counters, read after the run) agrees with the client's.
func (r Result) Verify(want int64, srv wire.StatsSnap) error {
	switch {
	case r.Ops != want:
		return fmt.Errorf("completed %d/%d ops", r.Ops, want)
	case r.DupAcks != 0:
		return fmt.Errorf("%d duplicated or reordered acks", r.DupAcks)
	case r.Errors != 0:
		return fmt.Errorf("%d error frames", r.Errors)
	case r.DurableAcks != r.Writes:
		return fmt.Errorf("dropped durable acks: %d acks for %d writes", r.DurableAcks, r.Writes)
	case r.AppliedAcks != r.Writes:
		return fmt.Errorf("dropped applied acks: %d acks for %d writes", r.AppliedAcks, r.Writes)
	case int64(srv.DurableAcks) != r.DurableAcks || int64(srv.AppliedAcks) != r.AppliedAcks:
		return fmt.Errorf("server/client ack ledgers differ: server applied=%d durable=%d, client applied=%d durable=%d",
			srv.AppliedAcks, srv.DurableAcks, r.AppliedAcks, r.DurableAcks)
	case int64(srv.WriteCommits) != r.Writes:
		return fmt.Errorf("server committed %d writes, client finished %d", srv.WriteCommits, r.Writes)
	}
	return nil
}

// Run executes the configured load and blocks until every op on every
// connection has received its final ack (durable for writes, value for
// reads) or the timeout expires.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	var (
		mu      sync.Mutex
		res     Result
		hist    obs.Hist
		gapHist obs.Hist
		wg      sync.WaitGroup
		errCh   = make(chan error, cfg.Conns)
	)
	start := time.Now()
	deadline := start.Add(cfg.Timeout)
	for ci := 0; ci < cfg.Conns; ci++ {
		ops, err := Plan(cfg, ci)
		if err != nil {
			return Result{}, err
		}
		wg.Add(1)
		go func(ci int, ops []Op) {
			defer wg.Done()
			r, err := runConn(cfg, ci, ops, deadline, &hist, &gapHist)
			if err != nil {
				errCh <- fmt.Errorf("conn %d: %w", ci, err)
			}
			mu.Lock()
			res.Ops += r.Ops
			res.Reads += r.Reads
			res.Writes += r.Writes
			res.AppliedAcks += r.AppliedAcks
			res.DurableAcks += r.DurableAcks
			res.DupAcks += r.DupAcks
			res.Errors += r.Errors
			mu.Unlock()
		}(ci, ops)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	snap := hist.Snapshot()
	res.NetP50NS = snap.Quantile(0.50)
	res.NetP99NS = snap.Quantile(0.99)
	if gap := gapHist.Snapshot(); gap.Count > 0 {
		res.GapP50NS = gap.Quantile(0.50)
		res.GapP99NS = gap.Quantile(0.99)
	}
	select {
	case err := <-errCh:
		return res, err
	default:
		return res, nil
	}
}

// opState tracks one in-flight request on a connection.
type opState struct {
	sentAt    time.Time
	appliedAt time.Time
	isWrite   bool
	applied   bool
	done      bool
}

func runConn(cfg Config, ci int, ops []Op, deadline time.Time, hist, gapHist *obs.Hist) (Result, error) {
	nc, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		return Result{}, err
	}
	defer nc.Close()
	nc.SetDeadline(deadline)
	w := wire.NewWriter(nc)
	r := wire.NewReader(nc)

	var res Result
	states := make(map[uint64]*opState, cfg.Pipeline*2)
	var stMu sync.Mutex // sender writes states, receiver resolves them

	// tokens is the window.
	tokens := make(chan struct{}, cfg.Pipeline)
	for i := 0; i < cfg.Pipeline; i++ {
		tokens <- struct{}{}
	}
	release := func() {
		select {
		case tokens <- struct{}{}:
		default:
		}
	}

	sendErr := make(chan error, 1)
	go func() {
		for i := range ops {
			<-tokens
			o := &ops[i]
			stMu.Lock()
			states[o.ID] = &opState{sentAt: time.Now(), isWrite: o.Kind == ycsb.OpInsert || o.Kind == ycsb.OpRemove}
			stMu.Unlock()
			m := o.wireMsg()
			if err := w.Write(&m); err != nil {
				sendErr <- err
				return
			}
			// Every send follows a completion, so flushing per send keeps
			// the window moving.
			if err := w.Flush(); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	// Receiver: run to completion — every op must reach its final ack.
	want := len(ops)
	finals := 0
	for finals < want {
		m, err := r.Read()
		if err != nil {
			return res, fmt.Errorf("after %d/%d final acks: %w", finals, want, err)
		}
		stMu.Lock()
		st := states[m.ID]
		stMu.Unlock()
		if st == nil {
			if m.Type == wire.RespError {
				// An error frame for an ID we never sent — notably the
				// server's ID-0 capacity refusal — means the connection
				// will never complete; fail fast instead of spinning to
				// the deadline.
				return res, fmt.Errorf("after %d/%d final acks: server error code %d: %s", finals, want, m.Code, m.Text)
			}
			res.DupAcks++ // ack for an ID never sent (or already reaped)
			continue
		}
		final := false
		switch m.Type {
		case wire.RespValue:
			if st.isWrite || st.done {
				res.DupAcks++
				break
			}
			final = true
			res.Reads++
			release()
		case wire.RespApplied:
			res.AppliedAcks++
			if !st.isWrite || st.applied || st.done {
				res.DupAcks++
				break
			}
			st.applied = true
			st.appliedAt = time.Now()
			// Buffered durability's whole point: the client proceeds at
			// memory speed, unless it chose to wait for the durable ack.
			if !cfg.WaitDurable {
				release()
			}
		case wire.RespDurable:
			res.DurableAcks++
			if !st.isWrite || st.done || !st.applied {
				res.DupAcks++
				break
			}
			final = true
			res.Writes++
			gapHist.Record(uint64(ci)%obs.NumShards, time.Since(st.appliedAt).Nanoseconds())
			if cfg.WaitDurable {
				release()
			}
		case wire.RespError:
			res.Errors++
			final = true
			release()
		default:
			res.Errors++
		}
		if final && !st.done {
			st.done = true
			finals++
			res.Ops++
			hist.Record(uint64(ci)%obs.NumShards, time.Since(st.sentAt).Nanoseconds())
		}
	}
	if err := <-sendErr; err != nil {
		return res, err
	}
	return res, nil
}
