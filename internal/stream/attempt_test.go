package stream

import (
	"os"
	"reflect"
	"testing"
)

// seekableSource is a closableSource that can still seek when the source
// it wraps can.
type seekableSource struct{ closableSource }

func (s *seekableSource) SeekDay(day int) error { return s.Source.(DaySeeker).SeekDay(day) }

// trackedJob wraps a job so every source it opens is recorded and closable;
// seek keeps the sources seekable.
func trackedJob(base Job, seek bool, opened *[]*closableSource) Job {
	return Job{ID: base.ID, Open: func() (Source, *Home, error) {
		src, h, err := base.Open()
		if err != nil {
			return nil, nil, err
		}
		if seek {
			s := &seekableSource{closableSource{Source: src}}
			*opened = append(*opened, &s.closableSource)
			return s, h, nil
		}
		s := &closableSource{Source: src}
		*opened = append(*opened, s)
		return s, h, nil
	}}
}

// checkpointAt drives a job's first days and returns the checkpoint taken
// at the last of them.
func checkpointAt(t *testing.T, job Job, days int) *Checkpoint {
	t.Helper()
	p := FleetOptions{}.AttemptPolicy(true)
	a, err := p.Open(job, &HomeOutcome{ID: job.ID}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var blk DayBlock
	for d := 0; d < days; d++ {
		if _, err := a.Step(&blk); err != nil {
			t.Fatal(err)
		}
	}
	if a.Last == nil || a.Last.Days != days {
		t.Fatalf("no day-%d checkpoint: %+v", days, a.Last)
	}
	return a.Last
}

// TestAttemptRestoreFallbacks: every restore the shared opener cannot make
// starts the home fresh — a corrupt checkpoint file, a checkpoint past the
// stream's end (the first source is closed and the job reopened), and a
// source that cannot seek — and the fresh attempt finishes with the clean
// run's result while its saves overwrite the stale file. The RunFleet leg
// runs the corrupt-file case end to end.
func TestAttemptRestoreFallbacks(t *testing.T) {
	const days = 2
	base := chaosJobs(1, days)[0]
	clean, err := RunFleet([]Job{base}, FleetOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Homes[0]
	corrupt := func(t *testing.T, dir string) {
		if err := os.WriteFile(CheckpointPath(dir, base.ID), []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	save := func(ck *Checkpoint) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			if err := SaveCheckpoint(dir, ck); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The same home three days into a longer stream: it restores into the
	// home, but the two-day source cannot seek past its end.
	past := checkpointAt(t, chaosJobs(1, days+2)[0], days+1)
	cases := []struct {
		name  string
		seed  func(*testing.T, string)
		seek  bool
		opens int
	}{
		{"corrupt file", corrupt, true, 1},
		{"past the stream's end", save(past), true, 2},
		{"source cannot seek", save(checkpointAt(t, base, 1)), false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.seed(t, dir)
			var opened []*closableSource
			job := trackedJob(base, tc.seek, &opened)
			p := FleetOptions{CheckpointDir: dir}.AttemptPolicy(false)
			out := HomeOutcome{ID: job.ID}
			a, err := p.Open(job, &out, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.Restored || out.Restores != 0 || out.Attempts != 1 {
				t.Fatalf("attempt restored: %+v", out)
			}
			if len(opened) != tc.opens {
				t.Fatalf("job opened %d times, want %d", len(opened), tc.opens)
			}
			for _, s := range opened[:len(opened)-1] {
				if !s.closed {
					t.Fatal("source of the discarded restore leaked")
				}
			}
			got, err := a.Run()
			a.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !opened[len(opened)-1].closed {
				t.Fatal("Close left the source open")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fresh start diverges from the clean run:\n%+v\nvs\n%+v", got, want)
			}
			ck, err := LoadCheckpoint(dir, base.ID)
			if err != nil || ck == nil || ck.Days != days {
				t.Fatalf("next save did not overwrite the stale file: %+v, %v", ck, err)
			}
		})
	}
	t.Run("RunFleet", func(t *testing.T) {
		dir := t.TempDir()
		corrupt(t, dir)
		res, err := RunFleet([]Job{base}, FleetOptions{Workers: 1, Recover: true, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if out := res.Outcomes[0]; out.Status != OutcomeCompleted || out.Attempts != 1 || out.Restores != 0 {
			t.Fatalf("outcome: %+v", out)
		}
		if !reflect.DeepEqual(res.Homes[0], want) {
			t.Fatalf("fleet diverges from the clean run:\n%+v\nvs\n%+v", res.Homes[0], want)
		}
		if ck, err := LoadCheckpoint(dir, base.ID); ck != nil || err != nil {
			t.Fatalf("completed home left a checkpoint: %+v, %v", ck, err)
		}
	})
}
