package durability_test

import (
	"testing"

	"bdhtm/internal/durability"
	"bdhtm/internal/epoch"
	"bdhtm/internal/nvm"
)

// fenceBudget is the documented fences-per-commit figure of each engine
// (DESIGN.md "Durability engines"). A change to any engine's commit
// discipline must update both the doc and this table deliberately.
var fenceBudget = map[string]int64{
	"bdl":    2, // write-back fence + watermark fence
	"undo":   3, // arm-log fence + apply fence + clear+watermark fence
	"redo4f": 4, // entries, record, apply, watermark — one fence each
	"redo2f": 2, // entries+record fence, apply+watermark fence
	"quadra": 1, // single trailing fence
}

// TestFenceAccountingPerEngine pins the engines' fence/flush accounting
// on a scripted workload: with sync manual advances and a log that never
// spills, every engine must issue exactly FencesPerCommit() heap fences
// per committed epoch, self-report them in Accounting(), and surface them
// through epoch.Stats.
func TestFenceAccountingPerEngine(t *testing.T) {
	const rounds = 20
	for _, eng := range durability.Names() {
		eng := eng
		t.Run(eng, func(t *testing.T) {
			budget, ok := fenceBudget[eng]
			if !ok {
				t.Fatalf("engine %s has no documented fence budget", eng)
			}
			h := nvm.New(nvm.Config{Words: 1 << 16})
			sys := epoch.New(h, epoch.Config{Manual: true, Engine: eng})
			if got := sys.Engine().FencesPerCommit(); got != budget {
				t.Fatalf("FencesPerCommit() = %d, documented budget is %d", got, budget)
			}
			w := sys.Register()
			for r := 0; r < rounds; r++ {
				for j := 0; j < 4; j++ {
					w.BeginOp()
					b := w.PNew(2, 1)
					w.PTrack(b)
					w.EndOp()
				}
				sys.AdvanceOnce()
			}
			acct := sys.Engine().Accounting()
			if acct.Commits != rounds {
				t.Fatalf("accounting reports %d commits for %d sync advances", acct.Commits, rounds)
			}
			if acct.Spills != 0 {
				t.Fatalf("log spilled %d times on a tiny workload; fence budget not comparable", acct.Spills)
			}
			if acct.Fences != acct.Commits*budget {
				t.Errorf("%d fences for %d commits, want commits*budget = %d",
					acct.Fences, acct.Commits, acct.Commits*budget)
			}
			// Engine stats surface through epoch.Stats for the bench rows.
			st := sys.Stats()
			if st.Engine != eng || st.EngineFences != acct.Fences || st.EngineCommits != acct.Commits {
				t.Errorf("epoch.Stats engine fields (%q, %d, %d) disagree with accounting (%q, %d, %d)",
					st.Engine, st.EngineFences, st.EngineCommits, eng, acct.Fences, acct.Commits)
			}
		})
	}
}
