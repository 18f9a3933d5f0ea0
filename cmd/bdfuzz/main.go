// Command bdfuzz drives the crash-consistency fuzzer from the shell:
// seeded random rounds across any registered subject, and exact replay of
// previously reported failures.
//
// Fuzz every structure for 500 rounds:
//
//	bdfuzz -subject all -rounds 500
//
// Fuzz one structure from a chosen seed:
//
//	bdfuzz -subject bdhash -seed 0xbd0ff -rounds 200
//
// Reproduce a failure exactly as reported (every failure prints this):
//
//	bdfuzz -replay 'subject=bdhash seed=0x... ops=150 workers=4 ...'
//
// The seed may also come from BDFUZZ_SEED; the -seed flag wins. Every
// round also takes the early write-back step every few operations (its
// replay line carries early=).
//
// A change meant to keep behaviour is checked with -digest: it runs each
// round single-writer, twice (no early step, and the derived one), and
// prints one line per run: the persist-event count, an ordered and a
// multiset hash of the events (point, address, the touched line's view),
// a hash of the view each crash left, the verdict and the replay spec.
// Two builds must print the same lines (pin GOMAXPROCS: recovery's scan
// splits its write-backs by it). With -replay, -digest prints that round's
// events one a line, so a diff of two builds' output names the first
// event that differs:
//
//	bdfuzz -digest -subject bdhash -rounds 80
//	bdfuzz -digest -replay 'subject=bdhash seed=0x... workers=1 ...'
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bdhtm/internal/crashfuzz"
)

func main() {
	var (
		subject = flag.String("subject", "all", "subject to fuzz: "+strings.Join(crashfuzz.Names(), ", ")+", or 'all'")
		seedStr = flag.String("seed", "", "master seed (decimal or 0x-hex; default BDFUZZ_SEED or 0xbdf)")
		rounds  = flag.Int("rounds", 200, "rounds per subject")
		ops     = flag.Int("ops", 0, "ops per worker per crash segment (0 = derive per round)")
		workers = flag.Int("workers", 0, "worker goroutines (0 = derive per round; 1 = exact-prefix mode)")
		evict   = flag.Float64("evict", crashfuzz.Derive, "eviction fraction at crash (default: derive per round)")
		async   = flag.Int("async", crashfuzz.Derive, "schedule: flusher step runs right after each advance (1) or lags a full epoch (0) (default: derive per round)")
		replay  = flag.String("replay", "", "replay one fully specified round (as printed by a failure) and exit")
		digest  = flag.Bool("digest", false, "print each single-writer round's persist-event digest instead of fuzzing; with -replay, every event of that round")
		verbose = flag.Bool("v", false, "log each subject's progress")
	)
	flag.Parse()

	if *replay != "" {
		p, err := crashfuzz.ParseReplay(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *digest {
			n := 0
			d := crashfuzz.DigestRound(p, func(e crashfuzz.PersistEvent) {
				n++
				fmt.Printf("event %d %s %#x %x\n", n, e.Point, e.Addr, e.Line)
			})
			if !printDigest(p.Subject, d, p) {
				os.Exit(1)
			}
			return
		}
		if f := crashfuzz.RunRound(p); f != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %s\n", f.Error())
			os.Exit(1)
		}
		fmt.Println("round passed")
		return
	}

	seed := crashfuzz.SeedFromEnv(0xbdf)
	if *seedStr != "" {
		v, err := strconv.ParseUint(*seedStr, 0, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -seed %q: %v\n", *seedStr, err)
			os.Exit(2)
		}
		seed = v
	}

	subjects := crashfuzz.Names()
	if *subject != "all" {
		if _, err := crashfuzz.NewSubject(*subject); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		subjects = []string{*subject}
	}

	logf := func(format string, args ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}

	failed := false
	for _, name := range subjects {
		base := crashfuzz.NewRoundParams(name, seed)
		base.Ops = *ops
		base.Workers = *workers
		base.Evict = *evict
		base.Async = *async
		base.Early = crashfuzz.Derive // every round takes early write-back steps
		if *digest {
			for i := range *rounds {
				p := base
				p.Seed = crashfuzz.Mix(seed, uint64(i))
				for _, early := range []int{0, crashfuzz.Derive} {
					p.Early = early
					if !printDigest(name, crashfuzz.DigestRound(p, nil), p) {
						failed = true
					}
				}
			}
			continue
		}
		start := time.Now()
		if f := crashfuzz.Fuzz(base, *rounds, logf); f != nil {
			fmt.Fprintf(os.Stderr, "%-9s FAIL after shrink: %s\n", name, f.Error())
			failed = true
			continue
		}
		fmt.Printf("%-9s ok  %d rounds in %v (seed 0x%x)\n", name, *rounds, time.Since(start).Round(time.Millisecond), seed)
	}
	if failed {
		os.Exit(1)
	}
}

// printDigest prints one round's digest line and reports whether it
// passed.
func printDigest(name string, d crashfuzz.Digest, p crashfuzz.RoundParams) bool {
	p.Workers = 1
	fmt.Printf("%-9s events=%d ordered=%016x multiset=%016x view=%016x %s  %s\n",
		name, d.Events, d.Ordered, d.Multiset, d.View, d.Verdict, crashfuzz.Resolve(p).ReplayString())
	return d.Verdict == "ok"
}
