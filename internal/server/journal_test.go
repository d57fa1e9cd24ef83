package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	tensorlights "repro"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	cfg := tensorlights.ExperimentConfig{NumJobs: 2, Placement: "2", Steps: 50, Seed: 9}
	must := func(r Record) {
		t.Helper()
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	must(Record{T: recSubmitted, ID: "j000000", Hash: "abc", Config: &cfg, TimeoutSec: 1.5})
	must(Record{T: recRunning, ID: "j000000", Attempt: 1})
	must(Record{T: recDone, ID: "j000000", Result: &tensorlights.Result{AvgJCT: 3.5}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].T != recSubmitted || recs[0].Config == nil || recs[0].Config.Seed != 9 || recs[0].TimeoutSec != 1.5 {
		t.Fatalf("submitted record lost fields: %+v", recs[0])
	}
	if recs[1].Attempt != 1 {
		t.Fatalf("running record lost attempt: %+v", recs[1])
	}
	if recs[2].Result == nil || recs[2].Result.AvgJCT != 3.5 {
		t.Fatalf("done record lost result: %+v", recs[2])
	}
}

// TestJournalReplaysRetiredFields: replay stays lenient where the HTTP
// door is strict. A record written by an older binary may carry config
// fields that no longer exist (here the retired "Sharded" option); it
// must still replay, with the fields it shares intact.
func TestJournalReplaysRetiredFields(t *testing.T) {
	path := journalPath(t)
	old := `{"t":"submitted","id":"j000000","hash":"h","config":{"NumJobs":2,"Steps":50,"Seed":9,"Sharded":null}}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 1 || recs[0].Config == nil || recs[0].Config.Seed != 9 || recs[0].Config.NumJobs != 2 {
		t.Fatalf("replay got %+v, want the submitted record with its config", recs)
	}
}

func TestJournalTornTailDiscarded(t *testing.T) {
	// A crash mid-append leaves a half-written final line. Replay must
	// drop it (it was never acknowledged) and truncate, so the next
	// append starts on a clean line.
	path := journalPath(t)
	full := `{"t":"submitted","id":"j000000","hash":"h"}` + "\n"
	torn := `{"t":"running","id":"j0000` // cut mid-record, no newline
	if err := os.WriteFile(path, []byte(full+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].T != recSubmitted {
		t.Fatalf("replay got %+v, want just the submitted record", recs)
	}
	if err := j.Append(Record{T: recRunning, ID: "j000000", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].T != recRunning {
		t.Fatalf("post-truncate journal replayed %+v", recs)
	}
}

func TestJournalTornTailWithNewlineDiscarded(t *testing.T) {
	// Same, but the torn bytes happen to end in a newline: the line is
	// unparseable and final, so it is still dropped, not fatal.
	path := journalPath(t)
	data := `{"t":"submitted","id":"j000000","hash":"h"}` + "\n" + `{"t":"runni` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replay got %d records, want 1", len(recs))
	}
}

func TestJournalMidFileCorruptionFatal(t *testing.T) {
	// Corruption with acknowledged records after it means lost jobs;
	// recovery must refuse to guess.
	path := journalPath(t)
	data := `{"t":"submitted","id":"j000000","hash":"h"}` + "\n" +
		`GARBAGE` + "\n" +
		`{"t":"running","id":"j000000","attempt":1}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(path)
	if err == nil || !strings.Contains(err.Error(), "corrupt mid-file") {
		t.Fatalf("got %v, want mid-file corruption error", err)
	}
}

func TestJournalAppendAfterCloseFails(t *testing.T) {
	j, _, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(Record{T: recRunning, ID: "x"}); err == nil {
		t.Fatal("append after close should fail")
	}
}
