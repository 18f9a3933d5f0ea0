// Package bdserve is the networked KV service over the buffered-durable
// substrate: a TCP server exposing any of internal/kv's buffered kinds
// (bdhash by default) through the internal/wire protocol, with
// per-connection goroutines running HTM transactions and a group-commit
// acker that rides the epoch system's durable watermark.
//
// The ack state machine is the service-level face of buffered
// durability. A write op (PUT/DEL) commits its HTM transaction at memory
// speed and is immediately acked *applied* (RespApplied, carrying the
// op's exact commit epoch). The op's durability then arrives for free:
// when the epoch system advances and the durability engine's watermark
// reaches the op's commit epoch, the acker flushes a *durable* ack
// (RespDurable) — one watermark movement acks every op of that epoch on
// every connection, the group commit. In -sync mode the applied ack is
// suppressed and the client hears nothing until durability, which is
// exactly the synchronous-persistence discipline the paper's buffered
// mode is measured against.
//
// A client that has seen RespDurable for an op is guaranteed the op
// survives any crash: the durable ack is emitted only after the engine's
// watermark (re-read at ack time, never cached) covers the op's epoch,
// and recovery restores at least that watermark. Ops acked only
// *applied* may be lost wholesale by a crash — but never torn, and never
// out of order within the epoch structure (the crashfuzz window checker
// is the test-side proof).
package bdserve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/kv"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/wire"
)

// Config shapes one server instance.
type Config struct {
	// Structure selects the store: one of kv.BufferedKinds ("bdhash" by
	// default).
	Structure string
	// KeySpace sizes the structure (and bounds Dump sweeps); a kind with a
	// bounded universe (veb) serves only keys below it.
	KeySpace uint64
	// HeapWords sizes the simulated NVM heap (default derived from
	// KeySpace, 32 words per key, min 1<<16).
	HeapWords int
	// EpochLength is the background advance cadence (ignored if Manual).
	EpochLength time.Duration
	// Manual disables the background advancer; tests drive
	// System().AdvanceOnce() themselves for deterministic scripts.
	Manual bool
	// Shards / Engine configure the persistence pipeline, forwarded to
	// epoch.Config.
	Shards int
	Engine string
	// RecoveryWorkers partitions Recover's header scan across this many
	// goroutines (0/1 = serial; forwarded to epoch.Config).
	RecoveryWorkers int
	// SyncAcks suppresses applied acks: every write is acked only once,
	// when durable (the -sync server flag).
	SyncAcks bool
	// MaxSessions bounds concurrently served connections (default 64).
	MaxSessions int
	// Obs receives service counters and gauges (nil disables).
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Structure == "" {
		c.Structure = "bdhash"
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 12
	}
	if c.HeapWords == 0 {
		c.HeapWords = int(c.KeySpace) * 32
		if c.HeapWords < 1<<16 {
			c.HeapWords = 1 << 16
		}
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	return c
}

// parts are the components the configured kind runs on, over heap. Every
// connection session (plus Dump's spare) is an epoch worker and, on the
// skiplist, a handle: both are sized MaxSessions + 8.
func (c Config) parts(heap *nvm.Heap) kv.Parts {
	k, ok := kv.Lookup(c.Structure)
	if !ok || !k.Buffered {
		panic(fmt.Sprintf("bdserve: unknown structure %q (have %v)", c.Structure, kv.BufferedKinds()))
	}
	p := kv.Parts{
		Heap: heap,
		TM:   htm.New(htm.Config{}),
		Epoch: epoch.Config{
			EpochLength:     c.EpochLength,
			Manual:          c.Manual,
			Shards:          c.Shards,
			Engine:          c.Engine,
			RecoveryWorkers: c.RecoveryWorkers,
			Obs:             c.Obs,
			MaxWorkers:      c.MaxSessions + 8,
		},
		KeySpace: c.KeySpace,
		Threads:  c.MaxSessions + 8,
	}
	if k.Index {
		p.Index = nvm.New(nvm.Config{Words: c.HeapWords, Mode: nvm.ModeDRAM})
	}
	return p
}

// Counters is a point-in-time snapshot of the server's service-layer
// accounting, for tests and the stats endpoint.
type Counters struct {
	Conns        int64 // connections accepted, lifetime
	Requests     int64 // request frames dispatched
	WriteCommits int64 // PUT/DEL transactions committed
	AppliedAcks  int64 // RespApplied frames written
	DurableAcks  int64 // RespDurable frames written
	ProtoErrors  int64 // connections torn down on protocol errors
	MaxAckLag    int64 // worst (watermark − commit epoch) seen at durable ack

	OpenConns int64 // gauge: currently open connections
	Inflight  int64 // gauge: requests decoded, first response not yet written
	AckQueue  int64 // gauge: write ops applied, durable ack not yet written

	// OldestUnackedNS: age of the oldest write applied but not yet
	// durable-acked (0 when the ack queue is empty or obs is disabled —
	// ages come from the recorder's clock).
	OldestUnackedNS int64
}

// RecoveryInfo summarizes a Recover cold start: how the header scan was
// partitioned and what it found. Zero value on servers built with New.
type RecoveryInfo struct {
	Workers     int   // scan worker goroutines
	ScanNS      int64 // header scan + resurrection write-back
	RebuildNS   int64 // structure rebuild from BlockRecords
	Blocks      int64 // live blocks handed to rebuild
	Resurrected int64 // deleted-but-unpersisted blocks revived
}

// Server is one bdserve instance.
type Server struct {
	cfg      Config
	heap     *nvm.Heap
	sys      *epoch.System
	tm       *htm.TM
	st       kv.Store
	keyLimit uint64 // largest key the structure accepts
	recovery RecoveryInfo

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	sessions []kv.Session // free pool; sessions outlive connections
	nSess    int
	closed   bool

	// dumpMu/dumpSess: lazily created fallback session for Dump when the
	// pool is drained and nSess is at MaxSessions, so Dump never blocks
	// on (or races with) connection sessions. One extra worker, outside
	// the MaxSessions budget (Config.parts reserves headroom for it).
	dumpMu   sync.Mutex
	dumpSess kv.Session

	wg        sync.WaitGroup
	notifyCh  chan uint64
	cancelSub func()

	conns64      atomic.Int64
	requests     atomic.Int64
	writeCommits atomic.Int64
	appliedAcks  atomic.Int64
	durableAcks  atomic.Int64
	protoErrors  atomic.Int64
	maxAckLag    atomic.Int64
	openConns    atomic.Int64
	inflight     atomic.Int64
	ackQueue     atomic.Int64
}

// New formats a fresh heap and starts a server (not yet listening; call
// Serve or Start).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return newServer(cfg, kv.Open(cfg.Structure, cfg.parts(nvm.New(nvm.Config{Words: cfg.HeapWords}))))
}

// Recover brings a server back up on a crashed heap: the epoch system
// replays the durability engine's image and every surviving block is
// rebuilt into a fresh structure (kv.Recover). The heap must have been
// formatted by a server with a compatible Config (same Structure and
// Engine).
func Recover(heap *nvm.Heap, cfg Config) *Server {
	cfg = cfg.withDefaults()
	st := kv.Recover(cfg.Structure, cfg.parts(heap))
	s := newServer(cfg, st)
	es := st.Sys.Stats()
	s.recovery = RecoveryInfo{
		Workers:     es.RecoveryWorkers,
		ScanNS:      es.RecoveryScanNS,
		RebuildNS:   es.RecoveryRebuildNS + st.RebuildNS,
		Blocks:      es.RecoveredLive,
		Resurrected: es.Resurrected,
	}
	return s
}

func newServer(cfg Config, st *kv.Stack) *Server {
	s := &Server{
		cfg:      cfg,
		heap:     st.Heap,
		sys:      st.Sys,
		tm:       st.TM,
		st:       st.Store,
		keyLimit: ^uint64(0),
		conns:    map[*conn]struct{}{},
		notifyCh: make(chan uint64, 1),
	}
	if st.Kind.Bounded {
		s.keyLimit = cfg.KeySpace - 1
	}
	s.cancelSub = s.sys.SubscribeDurable(s.notifyCh)
	s.wg.Add(1)
	go s.notifyLoop()
	return s
}

// notifyLoop fans each durable-watermark wake out to every open
// connection's acker. Sends are non-blocking (each conn's durable
// channel is a coalescing doorbell).
func (s *Server) notifyLoop() {
	defer s.wg.Done()
	for range s.notifyCh {
		s.mu.Lock()
		for c := range s.conns {
			c.pokeDurable()
		}
		s.mu.Unlock()
	}
}

// TMStats snapshots the server's HTM commit/abort counters.
func (s *Server) TMStats() htm.StatsSnapshot { return s.tm.Stats() }

// System exposes the epoch system (tests drive AdvanceOnce in Manual
// mode and read the watermark).
func (s *Server) System() *epoch.System { return s.sys }

// Heap exposes the NVM heap (crash tests hand it to Recover).
func (s *Server) Heap() *nvm.Heap { return s.heap }

// Recovery reports the cold-start scan/rebuild summary; zero value if the
// server was built with New rather than Recover.
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// Stats snapshots the service counters and gauges.
func (s *Server) Stats() Counters {
	return Counters{
		Conns:           s.conns64.Load(),
		Requests:        s.requests.Load(),
		WriteCommits:    s.writeCommits.Load(),
		AppliedAcks:     s.appliedAcks.Load(),
		DurableAcks:     s.durableAcks.Load(),
		ProtoErrors:     s.protoErrors.Load(),
		MaxAckLag:       s.maxAckLag.Load(),
		OpenConns:       s.openConns.Load(),
		Inflight:        s.inflight.Load(),
		AckQueue:        s.ackQueue.Load(),
		OldestUnackedNS: s.oldestUnackedNS(),
	}
}

// oldestUnackedNS scans the open connections' pending-ack queues for the
// earliest decode timestamp still awaiting its durable ack and returns
// its age on the recorder's clock (0 when none, or when obs is off). A
// cold path: it takes the connection set lock and each queue's mutex,
// and is meant for polling cadences, not per-op use.
func (s *Server) oldestUnackedNS() int64 {
	o := s.cfg.Obs
	if o == nil {
		return 0
	}
	var oldest int64
	s.mu.Lock()
	for c := range s.conns {
		c.ackMu.Lock()
		if len(c.pending) > 0 {
			if t := c.pending[0].decNS; t > 0 && (oldest == 0 || t < oldest) {
				oldest = t
			}
		}
		c.ackMu.Unlock()
	}
	s.mu.Unlock()
	if oldest == 0 {
		o.SetGauge(obs.GOldestUnackedNS, 0)
		return 0
	}
	age := o.Now() - oldest
	o.SetGauge(obs.GOldestUnackedNS, age)
	return age
}

// wireStats assembles the compact binary snapshot behind the STATS
// opcode: service counters, epoch/flusher state, and the HTM abort
// breakdown, cheap enough for dashboard polling.
func (s *Server) wireStats() wire.StatsSnap {
	es := s.sys.Stats()
	ts := s.tm.Stats()
	sampled, dropped := s.cfg.Obs.SpanCounts()
	var depth int64
	if s.cfg.Obs != nil {
		depth = s.cfg.Obs.Gauge(obs.GFlusherDepth)
	}
	return wire.StatsSnap{
		GlobalEpoch:     s.sys.GlobalEpoch(),
		PersistedEpoch:  s.sys.PersistedEpoch(),
		Advances:        uint64(es.Advances),
		Backpressure:    uint64(es.Backpressure),
		FlusherDepth:    uint64(depth),
		Conns:           uint64(s.conns64.Load()),
		OpenConns:       uint64(s.openConns.Load()),
		Requests:        uint64(s.requests.Load()),
		WriteCommits:    uint64(s.writeCommits.Load()),
		AppliedAcks:     uint64(s.appliedAcks.Load()),
		DurableAcks:     uint64(s.durableAcks.Load()),
		ProtoErrors:     uint64(s.protoErrors.Load()),
		Inflight:        uint64(s.inflight.Load()),
		AckQueue:        uint64(s.ackQueue.Load()),
		MaxAckLagEpochs: uint64(s.maxAckLag.Load()),
		OldestUnackedNS: uint64(s.oldestUnackedNS()),
		TxCommits:       uint64(ts.Commits),
		AbortsConflict:  uint64(ts.Conflict),
		AbortsCapacity:  uint64(ts.Capacity),
		AbortsInjected:  uint64(ts.Spurious + ts.MemType),
		AbortsOther:     uint64(ts.Explicit + ts.Locked + ts.PersistOp),
		FlushedBlocks:   uint64(es.FlushedBlocks),
		SpansSampled:    uint64(sampled),
		SpansDropped:    uint64(dropped),
	}
}

// Dump reads the store back through Get over [0, keyspace), the
// post-recovery state the crashfuzz window checker consumes.
func (s *Server) Dump(keyspace uint64) map[uint64]uint64 {
	if sess := s.takeSession(); sess != nil {
		defer s.putSession(sess)
		return s.dumpWith(sess, keyspace)
	}
	// Server at connection capacity: fall back to the dedicated dump
	// session rather than dereferencing nil or stealing from a conn.
	s.dumpMu.Lock()
	defer s.dumpMu.Unlock()
	if s.dumpSess == nil {
		s.dumpSess = s.st.NewSession()
	}
	return s.dumpWith(s.dumpSess, keyspace)
}

func (s *Server) dumpWith(sess kv.Session, keyspace uint64) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for k := uint64(0); k < keyspace; k++ {
		if v, ok := sess.Get(k); ok {
			m[k] = v
		}
	}
	return m
}

// Start listens on addr and serves in the background, returning the
// bound address (use "127.0.0.1:0" in tests).
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Close (or Crash). It returns
// nil on clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("bdserve: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.startConn(nc)
	}
}

func (s *Server) startConn(nc net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	sess := s.takeSessionLocked()
	if sess == nil {
		s.mu.Unlock()
		// Over MaxSessions: refuse politely and close.
		w := wire.NewWriter(nc)
		w.Write(&wire.Msg{Type: wire.RespError, Code: wire.ECodeServer, Text: "server at connection capacity"})
		w.Flush()
		nc.Close()
		return
	}
	c := &conn{
		srv:        s,
		nc:         nc,
		sess:       sess,
		respCh:     make(chan outMsg, 256),
		durCh:      make(chan struct{}, 1),
		writerGone: make(chan struct{}),
		readerGone: make(chan struct{}),
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	c.lane = uint64(s.conns64.Add(1)-1) % obs.NumShards
	s.gauge(obs.GServeConns, s.openConns.Add(1))
	s.metric(obs.MServeConns, 0, 1)

	s.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
}

func (s *Server) takeSession() kv.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takeSessionLocked()
}

func (s *Server) takeSessionLocked() kv.Session {
	if n := len(s.sessions); n > 0 {
		sess := s.sessions[n-1]
		s.sessions = s.sessions[:n-1]
		return sess
	}
	if s.nSess >= s.cfg.MaxSessions {
		return nil
	}
	s.nSess++
	return s.st.NewSession()
}

func (s *Server) putSession(sess kv.Session) {
	s.mu.Lock()
	s.sessions = append(s.sessions, sess)
	s.mu.Unlock()
}

// dropConn runs on the writer goroutine after writeLoop returns (its
// writerGone is already closed, so a reader blocked in send unblocks).
// It must not recycle the session until the reader has also exited: the
// reader executes ops on the session, and on a writer-side error (client
// RST mid-pipeline) it can still be draining buffered requests.
func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	_, live := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if !live {
		return
	}
	// Writer error paths leave the socket half-open; close it (flagging
	// teardown so the reader's Read error isn't counted as a protocol
	// violation) and wait out the reader before touching its state.
	c.closing.Store(true)
	c.nc.Close()
	<-c.readerGone
	s.gauge(obs.GServeConns, s.openConns.Add(-1))
	// Whatever this connection still owed (unanswered requests,
	// unflushed durable acks) dies with it; the gauges must not leak.
	c.ackMu.Lock()
	orphaned := int64(len(c.pending))
	c.pending = nil
	c.ackMu.Unlock()
	if orphaned > 0 {
		s.gauge(obs.GServeAckQueue, s.ackQueue.Add(-orphaned))
	}
	if inflight := c.inflight.Swap(0); inflight > 0 {
		s.gauge(obs.GServeInflight, s.inflight.Add(-inflight))
	}
	// Only now is the session quiescent and safe to hand to another
	// connection.
	s.mu.Lock()
	s.sessions = append(s.sessions, c.sess)
	s.mu.Unlock()
}

// Close stops accepting, tears down connections, and stops the epoch
// system cleanly (remaining buffered epochs are flushed by Stop's final
// advances).
func (s *Server) Close() {
	s.shutdownNet()
	s.sys.Stop()
}

// Crash simulates a power failure: network torn down, then the epoch
// system stops and the heap loses everything that was not persisted.
// Recover(srv.Heap(), cfg) brings the survivors back.
func (s *Server) Crash(opts nvm.CrashOptions) {
	s.shutdownNet()
	s.sys.SimulateCrash(opts)
}

func (s *Server) shutdownNet() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	var conns []*conn
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.nc.Close()
	}
	s.cancelSub()
	close(s.notifyCh)
	s.wg.Wait()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) metric(m obs.Metric, lane uint64, delta int64) {
	s.cfg.Obs.MetricAdd(m, lane, delta)
}

func (s *Server) gauge(g obs.GaugeID, v int64) {
	s.cfg.Obs.SetGauge(g, v)
}

func (s *Server) bumpAckLag(lag int64) {
	for {
		cur := s.maxAckLag.Load()
		if lag <= cur || s.maxAckLag.CompareAndSwap(cur, lag) {
			return
		}
	}
}
