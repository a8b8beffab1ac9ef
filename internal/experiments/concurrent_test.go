package experiments

import "testing"

func TestConcurrentExperiment(t *testing.T) {
	res, err := Concurrent(100) // 2000 ops/worker: a smoke-scale run
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.OpsPerSec <= 0 || r.Ops <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
}

func TestPauseExperiment(t *testing.T) {
	res, err := Pause(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	inline, daemon := res.Rows[0], res.Rows[1]
	if inline.Config != "inline" || daemon.Config != "daemon" {
		t.Fatalf("unexpected row order: %q, %q", inline.Config, daemon.Config)
	}
	for _, r := range res.Rows {
		if r.Ops == 0 || r.MaxStall == 0 {
			t.Fatalf("%s: degenerate row %+v", r.Config, r)
		}
		if r.Passes == 0 {
			t.Fatalf("%s: no meshing passes ran", r.Config)
		}
	}
	// Daemon meshing must actually have recorded bounded pauses.
	if daemon.PauseCount == 0 {
		t.Fatal("daemon mode recorded no pauses")
	}
}
