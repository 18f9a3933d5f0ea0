// Package bdhtm is a from-scratch Go reproduction of "Reconciling
// Hardware Transactional Memory and Persistent Programming with Buffered
// Durability" (Du, Su, Scott — SPAA 2025).
//
// The paper's system targets Intel TSX hardware transactions and Optane
// persistent memory; neither is reachable from Go, so this repository
// builds faithful simulated substrates and the full software stack above
// them:
//
//   - internal/nvm — simulated NVM with a volatile cache, explicit
//     flush/fence, unpredictable eviction, crash/recovery, an Optane-like
//     latency model, and eADR/DRAM modes;
//   - internal/htm — simulated best-effort HTM (line-granularity
//     conflicts, capacity and spurious aborts, explicit abort codes,
//     fine-grained fallback sessions as the slow path); persist
//     instructions abort transactions, reproducing the central
//     incompatibility;
//   - internal/palloc — a persistent slab allocator with one-word
//     durable block headers (24-byte KV blocks) and crash recovery;
//   - internal/epoch — the paper's contribution: a buffered-durable
//     epoch system with the Table 2 API (BeginOp/EndOp/AbortOp, PNew,
//     PTrack, PRetire, epoch stamps, OldSeeNew restarts) and
//     prefix-consistent crash recovery;
//   - case studies: internal/veb (HTM-vEB and PHTM-vEB),
//     internal/skiplist (five Fig. 5 variants), internal/spash (Spash and
//     BD-Spash), internal/bdhash (the Listing 1 tutorial table);
//   - baselines: internal/lbtree, internal/abtree (OCC/Elim),
//     internal/cceh, internal/plush;
//   - internal/kv — the one store contract (Session, Store, a table of
//     kinds, Open and Recover) through which the harness, the crash
//     fuzzer and the network service use all of the above;
//   - internal/ycsb and internal/harness — workloads and the experiment
//     driver behind cmd/bdbench and this package's benchmarks.
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation at reduced scale; cmd/bdbench produces the
// figure-shaped output (use -full for paper-scale parameters). See
// DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results against the paper's claims.
package bdhtm
