package harness

import (
	"strings"
	"testing"
	"time"

	"bdhtm/internal/ycsb"
)

// Every subject must run a small mixed workload without error and retain
// prefilled data it never removed.
func TestAllSubjectsSmoke(t *testing.T) {
	o := Opts{KeySpace: 1 << 10}
	for _, kind := range []string{
		"veb-transient", "veb", "lbtree", "abtree-occ", "abtree-elim",
		"spash-eadr", "spash", "cceh", "plush", "bdhash",
	} {
		inst := New(kind, o)
		t.Run(inst.Name, func(t *testing.T) {
			defer inst.Close()
			wl := Workload{KeySpace: o.KeySpace, Dist: Uniform, Mix: ycsb.Mix{ReadPct: 50}, Prefill: true}
			r := RunOps(inst, wl, 2, 2000, 7)
			if r.Ops != 4000 {
				t.Fatalf("ops = %d", r.Ops)
			}
			if r.Throughput <= 0 {
				t.Fatalf("throughput = %f", r.Throughput)
			}
		})
	}
}

func TestAllSkiplistVariantsSmoke(t *testing.T) {
	for _, kind := range []string{"skiplist-dl", "skiplist-noflush", "skiplist-mwcas", "skiplist", "skiplist-transient"} {
		inst := New(kind, Opts{KeySpace: 1 << 10})
		t.Run(inst.Name, func(t *testing.T) {
			defer inst.Close()
			wl := Workload{KeySpace: 1 << 10, Dist: Zipf99, Mix: ycsb.Mix{ReadPct: 20}, Prefill: true}
			r := RunOps(inst, wl, 2, 1500, 3)
			if r.Ops != 3000 {
				t.Fatalf("ops = %d", r.Ops)
			}
		})
	}
}

func TestRunDuration(t *testing.T) {
	inst := New("veb-transient", Opts{KeySpace: 1 << 10})
	defer inst.Close()
	wl := Workload{KeySpace: 1 << 10, Dist: Uniform, Mix: ycsb.Mix{ReadPct: 20}}
	r := Run(inst, wl, 1, 50*time.Millisecond, 1)
	if r.Ops == 0 {
		t.Fatal("no ops measured")
	}
	if r.Elapsed < 50*time.Millisecond {
		t.Fatalf("elapsed %v too short", r.Elapsed)
	}
}

func TestSweepAndPrint(t *testing.T) {
	wl := Workload{KeySpace: 1 << 10, Dist: Uniform, Mix: ycsb.Mix{ReadPct: 20}}
	s := Sweep(func() *Instance { return New("veb-transient", Opts{KeySpace: 1 << 10}) }, wl, []int{1, 2}, 20*time.Millisecond)
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
	var sb strings.Builder
	PrintFigure(&sb, "Fig test", []Series{s})
	out := sb.String()
	if !strings.Contains(out, "HTM-vEB") || !strings.Contains(out, "Mops/s") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestTMStatsHook(t *testing.T) {
	inst := New("veb", Opts{KeySpace: 1 << 10})
	defer inst.Close()
	wl := Workload{KeySpace: 1 << 10, Dist: Uniform, Mix: ycsb.Mix{ReadPct: 0}, Prefill: false}
	RunOps(inst, wl, 1, 500, 5)
	s := inst.TM.Stats()
	if s.Commits == 0 {
		t.Fatal("no HTM commits recorded")
	}
}

func TestSpaceHooks(t *testing.T) {
	inst := New("veb", Opts{KeySpace: 1 << 12})
	defer inst.Close()
	Prefill(inst, 1<<12)
	inst.Sync()
	if inst.DRAMBytes() == 0 {
		t.Fatal("DRAM accounting empty")
	}
	if inst.NVMBytes() == 0 {
		t.Fatal("NVM accounting empty")
	}
}
