package server

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"specrun/internal/faultinject"
)

// Journal record types.  The job journal is an append-only JSONL file: one
// self-describing record per lifecycle transition, replayed at startup to
// rebuild the job table.  A record is never rewritten in place; compaction
// (at open, before any new appends) rewrites the whole file from the
// replayed state via tmp+rename.
const (
	recSubmit    = "submit"    // job accepted; carries kind + the full request
	recLease     = "lease"     // attempt n started
	recRetry     = "retry"     // attempt n failed; next lease no earlier than Next
	recDone      = "done"      // terminal success; result by cache Key and/or inline
	recFailed    = "failed"    // terminal failure
	recCancelled = "cancelled" // terminal user cancel
)

// journalRecord is one JSONL line.  Timestamps are UnixMilli so zero values
// omit cleanly.  Result is []byte (base64 on the wire), NOT json.RawMessage:
// Marshal compacts embedded raw JSON, which would break the byte-identity
// guarantee for results restored across a restart.
type journalRecord struct {
	T       string          `json:"t"`
	Job     string          `json:"job"`
	At      int64           `json:"at,omitempty"`      // transition time, UnixMilli
	Kind    string          `json:"kind,omitempty"`    // submit
	Req     json.RawMessage `json:"req,omitempty"`     // submit
	Attempt int             `json:"attempt,omitempty"` // lease / retry; compacted terminal records too
	Error   string          `json:"error,omitempty"`   // retry / failed; compacted cancelled records too
	Next    int64           `json:"next,omitempty"`    // retry: earliest next lease, UnixMilli
	Key     string          `json:"key,omitempty"`     // done: rescache content address
	Result  []byte          `json:"result,omitempty"`  // done: inline result (base64), bounded
}

// journalInlineResultMax bounds inline result payloads in done records.
// Results above the bound are persisted only through the disk cache tier
// (the done record keeps the content-address key); below it, the journal
// alone can restore the result even if the cache evicted it.
const journalInlineResultMax = 512 << 10

// journal is the append-only job-lifecycle log.  All methods are safe for
// concurrent use.  Write failures never propagate to request paths: they
// are logged and counted (durability is degraded, service is not).
type journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	logger *slog.Logger

	records   atomic.Uint64 // records appended this process
	writeErrs atomic.Uint64 // failed appends/fsyncs
}

// openJournal reads the journal at path (see readJournal) and opens it for
// append.
func openJournal(path string, logger *slog.Logger) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	var recs []journalRecord
	if raw, err := os.Open(path); err == nil {
		recs = readJournal(raw, path, logger)
		raw.Close()
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &journal{f: f, path: path, logger: logger}, recs, nil
}

// readJournal parses the journal read from r (named path in logs) into its
// records, in append order, tolerating a torn final line — the expected
// signature of kill -9 mid-append.
func readJournal(r io.Reader, path string, logger *slog.Logger) []journalRecord {
	var recs []journalRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r journalRecord
		if err := json.Unmarshal(line, &r); err != nil || r.T == "" || r.Job == "" {
			// A torn or foreign line: skip it.  Only the final line can
			// legitimately be torn; anything else is logged for the
			// operator but never blocks startup.
			logger.Warn("journal: skipping unparseable record", "path", path, "error", err)
			continue
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		logger.Warn("journal: scan ended early", "path", path, "error", err)
	}
	return recs
}

// append writes one record, optionally fsyncing (terminal and submit
// records fsync so a kill -9 cannot lose an acknowledged transition; lease
// and retry records do not — losing one only costs a redundant re-run).
func (j *journal) append(r journalRecord, sync bool) {
	if j == nil {
		return
	}
	line, err := json.Marshal(r)
	if err != nil {
		j.fail("marshal", err)
		return
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	if err := faultinject.Err(faultinject.JournalWrite); err != nil {
		j.fail("write", err)
		return
	}
	if _, err := j.f.Write(line); err != nil {
		j.fail("write", err)
		return
	}
	j.records.Add(1)
	if sync {
		if err := faultinject.Err(faultinject.Fsync); err != nil {
			j.fail("fsync", err)
			return
		}
		if err := j.f.Sync(); err != nil {
			j.fail("fsync", err)
		}
	}
}

func (j *journal) fail(op string, err error) {
	j.writeErrs.Add(1)
	j.logger.Warn("journal: "+op+" failed; durability degraded for this record", "path", j.path, "error", err)
}

// rewrite atomically replaces the journal with recs (compaction): tmp file,
// fsync, rename, reopen for append.  On any failure the existing journal is
// kept and appends continue onto it.
func (j *journal) rewrite(recs []journalRecord) error {
	if j == nil {
		return nil
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return err
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		// The rename succeeded but reopening failed: keep appending to the
		// (renamed-over) old handle is wrong, so drop to non-durable.
		j.f = nil
		old.Close()
		return err
	}
	j.f = nf
	old.Close()
	return nil
}

func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// nowMilli is the journal's clock granularity.
func nowMilli(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}
