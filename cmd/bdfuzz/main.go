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
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bdhtm/internal/crashfuzz"
	"bdhtm/internal/durability"
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
		engine  = flag.String("engine", "", "durability engine: "+strings.Join(durability.Names(), ", ")+" (default: derive per round)")
		replay  = flag.String("replay", "", "replay one fully specified round (as printed by a failure) and exit")
		verbose = flag.Bool("v", false, "log each subject's progress")
	)
	flag.Parse()

	if *replay != "" {
		p, err := crashfuzz.ParseReplay(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if f := crashfuzz.RunRound(p); f != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %s\n", f.Error())
			os.Exit(1)
		}
		fmt.Println("round passed")
		return
	}

	if *engine != "" {
		if _, err := durability.New(*engine, nil, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
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
		base.Engine = *engine
		base.Early = crashfuzz.Derive // every round takes early write-back steps
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
