// Flight-recorder fault dump, end to end: a cross-shard commit whose
// record the node log cannot write must auto-dump the black box before
// the fail-stop hook fires, the dump must name the failed commit's epoch,
// and the restart must hold the store as it was before the fault — the
// failed record never reached the log, so there is nothing to discard.
package durable

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/shard"
)

// waitForDump polls for a dump file with the given reason suffix.
func waitForDump(t *testing.T, dir, reason string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, err := os.ReadDir(dir)
		if err == nil {
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), "-"+reason+".events") {
					return filepath.Join(dir, e.Name())
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s flight dump appeared in %s", reason, dir)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFlightDumpsAndMergedTimeline(t *testing.T) {
	k0, k1 := shardKeys(t)
	dir := t.TempDir()

	// A healthy cross commit, then a doomed one over a broken log (as a
	// device fault would leave it).
	fl := flight.New(2, 0)
	fl.SetNode("primary")
	onErr := make(chan error, 4)
	st := shard.Open(shard.Config{Shards: 2})
	m, err := Open(Options{Dir: dir, Flight: fl, OnError: func(e error) { onErr <- e }}, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	transfer := func(v0, v1 string) (uint64, error) {
		tr := obs.NewTrace(time.Now())
		_, err := st.UpdateTracedResult(0, []string{k0, k1}, nil, tr, nil, func(tx shard.Tx) error {
			if err := tx.Set(k0, []byte(v0)); err != nil {
				return err
			}
			return tx.Set(k1, []byte(v1))
		})
		return tr.Epoch(), err
	}
	if _, err := transfer("10", "10"); err != nil {
		t.Fatal(err)
	}
	breakWAL(m, errors.New("injected device failure"))
	failed, err := transfer("3", "17")
	var se *engine.SyncError
	if !errors.As(err, &se) {
		t.Fatalf("cross commit over broken WAL returned %v, want *engine.SyncError", err)
	}
	select {
	case <-onErr:
	case <-time.After(5 * time.Second):
		t.Fatal("OnError fail-stop hook never fired")
	}
	// The walfail dump strictly precedes the hook, so it exists by now.
	d, err := flight.ParseDumpFile(waitForDump(t, filepath.Join(dir, "flight"), "walfail"))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	m.Close() // the log's close error is the fault itself

	// The merged timeline puts the failed epoch's WAL error and fsync
	// failure in one block.
	var buf strings.Builder
	if err := flight.MergeTimeline([]flight.Dump{d}, &buf); err != nil {
		t.Fatal(err)
	}
	_, block, found := strings.Cut(buf.String(), "epoch "+strconv.FormatUint(failed, 10)+"\n")
	if !found {
		t.Fatalf("merged timeline has no block for the failed epoch %d:\n%s", failed, buf.String())
	}
	if i := strings.Index(block, "\nepoch "); i >= 0 {
		block = block[:i]
	}
	for _, event := range []string{flight.EvWalError, flight.EvFsyncError} {
		if !strings.Contains(block, "primary") || !strings.Contains(block, event) {
			t.Errorf("epoch %d timeline is missing %s on primary:\n%s", failed, event, block)
		}
	}

	// The restart holds the pre-fault state and writes no dump of its own.
	st2 := shard.Open(shard.Config{Shards: 2})
	m2, err := Open(Options{Dir: dir, Flight: flight.New(2, 0)}, st2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	defer m2.Close()
	if got0, got1 := get(t, st2, k0), get(t, st2, k1); got0 != "10" || got1 != "10" {
		t.Errorf("after recovery %s=%q %s=%q, want the pre-fault 10 and 10", k0, got0, k1, got1)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "flight")); len(entries) != 1 {
		t.Errorf("flight dir holds %d dumps after the restart, want the walfail dump only", len(entries))
	}
}
