package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzJournalReplay replays arbitrary jobs.jsonl bytes — a journal that a
// crash may have torn anywhere — the way a boot does: parse, restore,
// compact.  Replay must never panic, and compaction must be a fixed point:
// restoring the compacted journal into a fresh store gives back every job
// with the same id, kind, status, attempts, error and result.
func FuzzJournalReplay(f *testing.F) {
	shapes := journalShapes(f)
	f.Add(shapes)
	f.Add(append(append([]byte{}, shapes...), `{"t":"done","job":"j1","resu`...)) // torn tail
	f.Add([]byte(`{"t":"submit","job":"j1","kind":"fig9","req":{}}` + "\n" + `{"t":"lease","job":"j1"}` + "\n"))
	f.Add([]byte(`{"t":"submit","job":"j1","kind":"fig9","req":{}}` + "\n" +
		`{"t":"retry","job":"j1","attempt":1,"error":"boom","next":1}` + "\n" +
		`{"t":"cancelled","job":"j1"}` + "\n"))
	f.Add([]byte(`{"t":"submit","job":"j1","kind":"fig9","req":{}}` + "\n" +
		`{"t":"done","job":"j1","result":"e30="}` + "\n" +
		`{"t":"failed","job":"j1","error":"boom"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a := replay(data)
		var image []byte // the compacted journal, as rewrite writes it
		for _, r := range a.snapshotRecords() {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			image = append(append(image, line...), '\n')
		}
		b := replay(image)

		want, got := a.list(), b.list()
		if len(want) != len(got) {
			t.Fatalf("compaction kept %d jobs, replay restored %d", len(got), len(want))
		}
		for i, w := range want {
			wv, _ := a.get(w.ID)
			gv, _ := b.get(got[i].ID)
			if gv.ID != wv.ID || gv.Kind != wv.Kind || gv.Status != wv.Status ||
				gv.Attempts != wv.Attempts || gv.Error != wv.Error || !bytes.Equal(gv.Result, wv.Result) {
				t.Fatalf("job %d changed across compaction:\n replay:    %+v\n compacted: %+v", i, wv, gv)
			}
		}
	})
}

// replay restores the journal bytes data into a fresh store, through the
// parser openJournal reads a journal file with.
func replay(data []byte) *jobStore {
	s := newJobStore()
	s.restore(readJournal(bytes.NewReader(data), "jobs.jsonl", slog.New(slog.DiscardHandler)), nil)
	return s
}

// journalShapes journals TestJournalRestore's lifecycle shapes — done,
// failed after its retries, cancelled, leased then crashed, never leased —
// plus a job cancelled while it backed off before a retry, and returns the
// journal's bytes.
func journalShapes(tb testing.TB) []byte {
	path := filepath.Join(tb.TempDir(), "jobs.jsonl")
	jnl, _, err := openJournal(path, slog.New(slog.DiscardHandler))
	if err != nil {
		tb.Fatal(err)
	}
	s := newJobStore()
	s.policy = RetryPolicy{MaxAttempts: 2, Jitter: -1}.withDefaults()
	s.journal = jnl
	later := time.Now().Add(time.Hour)

	doneID := s.create("fig9", JobRequest{RunRequest: RunRequest{Workers: 1}})
	s.leaseNext(time.Now(), testCtx)
	s.finish(doneID, "cachekey", []byte(`{"answer":42}`), nil)

	failedID := s.create("fig10", JobRequest{})
	for i := 0; i < 2; i++ {
		s.leaseNext(later, testCtx)
		s.finish(failedID, "", nil, errors.New("boom"))
	}

	s.cancelJob(s.create("fig9", JobRequest{}))

	backoffID := s.create("ipc", JobRequest{})
	s.leaseNext(later, testCtx)
	s.finish(backoffID, "", nil, errors.New("injected fault"))
	s.cancelJob(backoffID)

	s.create("fig9", JobRequest{})
	s.leaseNext(later.Add(time.Hour), testCtx) // crashes: no record follows its lease
	s.create("defense", JobRequest{})
	jnl.close()

	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
