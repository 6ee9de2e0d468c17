package shard

import (
	"errors"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// faultLog is a durable commit log that counts what the pipeline hands it
// and fails Sync on demand. With stall set, every Sync first announces
// itself on syncing (buffered; extra announcements are dropped) and then
// waits for stall to be closed — the seam that holds a group-commit flush
// open while the next batch forms behind it.
type faultLog struct {
	syncErr        error
	syncing, stall chan struct{}
	records, cross atomic.Int64 // appends; those carrying a cross-shard commit
}

func (l *faultLog) AppendCommit(rec engine.CommitRecord) uint64 {
	l.records.Add(1)
	if len(rec.Shards) > 1 {
		l.cross.Add(1)
	}
	return rec.Epoch
}
func (l *faultLog) Durable() bool { return true }
func (l *faultLog) Sync() error {
	if l.stall != nil {
		select {
		case l.syncing <- struct{}{}:
		default:
		}
		<-l.stall
	}
	return l.syncErr
}

// TestCommitBoundaryContract drives every caller of the engine's commit
// pipeline — commit-queue flushes of one (per-commit), of a store's own
// batch, and of a cross-shard batch with single- and multi-shard
// installs, and replica rounds of standalone, cross-shard and mixed
// records — against a failing commit log and
// against a tripped fence, and holds each to the same contract: the
// writes are installed, every installed verdict of the batch is a
// *engine.SyncError wrapping the cause, and a request of the same batch
// that failed validation is not failed by it.
func TestCommitBoundaryContract(t *testing.T) {
	// verdict is what commitCross reports for one request.
	type verdict struct {
		ok  bool
		err error
	}
	// outcome is what one caller shape reports back.
	type outcome struct {
		installed []error           // verdict errors of requests that installed
		rejected  []verdict         // verdicts of requests that failed validation
		want      map[string]string // committed state afterwards
		records   int64             // log records the shape installed
		epochs    int64             // two-participant commit epochs the shape minted
	}
	set := func(tx Tx, kv ...string) error {
		for i := 0; i < len(kv); i += 2 {
			if err := tx.Set(kv[i], []byte(kv[i+1])); err != nil {
				return err
			}
		}
		return nil
	}
	// combine serves one hand-built batch of the shard pair's commit queue:
	// a request whose read is stale (must fail validation) ahead of one that
	// installs writes. A leader parked inside its own step (it installs
	// nothing) holds a flush open while the two queue up behind it, in
	// order, and share the next one.
	combine := func(t *testing.T, s *Store, k0, k1 string, writes map[string][]byte, want map[string]string) outcome {
		q, entered, gate := s.queueFor([]int{0, 1}), make(chan struct{}), make(chan struct{})
		go q.Commit(0, nil, func() bool { close(entered); <-gate; return false })
		<-entered
		submit := func(c *crossTx, queued int) chan verdict {
			out := make(chan verdict, 1)
			go func() {
				ok, err := s.commitCross(c, true, nil, nil)
				out <- verdict{ok, err}
			}()
			for q.Pending() < queued {
				runtime.Gosched()
			}
			return out
		}
		stale := s.newCrossTx([]string{k0, k1}, 0)
		k, _ := stale.entry(k0)
		k.read, k.ver = true, 99
		fresh := s.newCrossTx([]string{k0, k1}, 1)
		for key, val := range writes {
			if err := fresh.Set(key, val); err != nil {
				t.Fatal(err)
			}
		}
		parts, _ := fresh.writeSets()
		bad := submit(stale, 1)
		good := submit(fresh, 2)
		close(gate)
		return outcome{installed: []error{(<-good).err}, rejected: []verdict{<-bad},
			want: want, records: 1, epochs: int64(len(parts)) - 1}
	}
	var logs []*faultLog // this subtest's commit logs, one per shard
	// OCC-BC keeps the flush population exact: no speculative shadow
	// enqueues a commit of its own behind the stalled flush.
	grouped := engine.Config{Mode: engine.OCCBC, GroupCommit: engine.GroupCommit{Enabled: true, MaxBatch: 1 << 20}}
	shapes := []struct {
		name string
		eng  engine.Config
		run  func(t *testing.T, s *Store, k0, k1 string) outcome
	}{
		{name: "per-commit", run: func(t *testing.T, s *Store, k0, k1 string) outcome {
			_, err := s.UpdateTracedResult(1, []string{k0}, nil, nil, nil, func(tx Tx) error { return set(tx, k0, "1") })
			return outcome{installed: []error{err}, want: map[string]string{k0: "1"}, records: 1}
		}},
		{name: "group-flush", eng: grouped,
			run: func(t *testing.T, s *Store, k0, k1 string) outcome {
				// A lone commit flushes at once and stalls in its sync; two
				// increments of one key queue behind it and share the next
				// flush: the first to validate installs, the other fails
				// validation. Were the batch's error stamped on the loser
				// too it would give up with its write missing; instead it
				// re-executes and installs in a flush of its own — k0 ends
				// at 2.
				idx := s.ShardOf(k0)
				eng, log := s.Shard(idx), logs[idx]
				log.syncing, log.stall = make(chan struct{}, 1), make(chan struct{})
				lone := k0 // a second key on k0's shard
				for i := 0; lone == k0 || s.ShardOf(lone) != idx; i++ {
					lone = "lone" + strconv.Itoa(i)
				}
				errs := make(chan error, 3)
				go func() { errs <- s.Update([]string{lone}, func(tx Tx) error { return set(tx, lone, "1") }) }()
				<-log.syncing
				for i := 0; i < 2; i++ {
					go func() {
						errs <- s.Update([]string{k0}, func(tx Tx) error {
							v, err := tx.Get(k0)
							if err != nil {
								return err
							}
							return set(tx, k0, string(bytes8(num(v)+1)))
						})
					}()
				}
				deadline := time.Now().Add(10 * time.Second)
				for eng.PendingCommits() < 2 {
					if time.Now().After(deadline) {
						t.Fatalf("pending commits stuck at %d behind the stalled flush", eng.PendingCommits())
					}
					runtime.Gosched()
				}
				close(log.stall)
				out := outcome{want: map[string]string{k0: string(bytes8(2)), lone: "1"}, records: 3}
				for i := 0; i < 3; i++ {
					out.installed = append(out.installed, <-errs)
				}
				return out
			}},
		{name: "cross-combine-multi-shard", eng: grouped, run: func(t *testing.T, s *Store, k0, k1 string) outcome {
			return combine(t, s, k0, k1, map[string][]byte{k0: []byte("2"), k1: []byte("2")},
				map[string]string{k0: "2", k1: "2"})
		}},
		{name: "cross-combine-single-shard", eng: grouped, run: func(t *testing.T, s *Store, k0, k1 string) outcome {
			return combine(t, s, k0, k1, map[string][]byte{k1: []byte("3")}, map[string]string{k1: "3"})
		}},
		{name: "cross-update", run: func(t *testing.T, s *Store, k0, k1 string) outcome {
			err := s.Update([]string{k0, k1}, func(tx Tx) error { return set(tx, k0, "4", k1, "4") })
			return outcome{installed: []error{err}, want: map[string]string{k0: "4", k1: "4"}, records: 1, epochs: 1}
		}},
		{name: "apply-replicated", run: func(t *testing.T, s *Store, k0, k1 string) outcome {
			err := s.ApplyReplicated([]Replicated{one(0, k0, "5"), one(0, k0, "6")})
			return outcome{installed: []error{err}, want: map[string]string{k0: "6"}, records: 2}
		}},
		{name: "apply-replicated-cross", run: func(t *testing.T, s *Store, k0, k1 string) outcome {
			err := s.ApplyReplicated([]Replicated{{Shards: []int{0, 1}, Writes: []map[string][]byte{{k0: []byte("7")}, {k1: []byte("7")}}}})
			return outcome{installed: []error{err}, want: map[string]string{k0: "7", k1: "7"}, records: 1, epochs: 1}
		}},
		{name: "apply-replicated-mixed", run: func(t *testing.T, s *Store, k0, k1 string) outcome {
			// One round, one batch: standalone records on either side of a
			// cross-shard one, installed in order.
			err := s.ApplyReplicated([]Replicated{
				one(0, k0, "8"),
				{Shards: []int{0, 1}, Writes: []map[string][]byte{{k0: []byte("9")}, {k1: []byte("9")}}},
				one(1, k1, "10"),
			})
			return outcome{installed: []error{err}, want: map[string]string{k0: "9", k1: "10"}, records: 3, epochs: 1}
		}},
	}
	cause := errors.New("injected boundary failure")
	for _, fault := range []string{"sync", "fence"} {
		for _, shape := range shapes {
			t.Run(fault+"/"+shape.name, func(t *testing.T) {
				logs = []*faultLog{{}, {}}
				s := Open(Config{Shards: 2, Engine: shape.eng})
				defer s.Close()
				for i, l := range logs {
					s.Shard(i).SetCommitLog(l)
					if fault == "sync" {
						l.syncErr = cause
					} else {
						s.Shard(i).SetFence(func() error { return cause })
					}
				}
				k0, k1 := keyOn(t, s, 0), keyOn(t, s, 1)
				out := shape.run(t, s, k0, k1)

				for i, err := range out.installed {
					var se *engine.SyncError
					if !errors.As(err, &se) || !errors.Is(err, cause) {
						t.Errorf("installed verdict %d = %v, want *engine.SyncError wrapping the injected cause (an OK here is an acknowledged commit that never crossed the boundary)", i, err)
					}
				}
				for i, v := range out.rejected {
					if v.ok || v.err != nil {
						t.Errorf("validation-failed verdict %d = %+v, want {ok:false err:nil}: the batch's error belongs to installed verdicts only", i, v)
					}
				}
				for k, want := range out.want {
					if got, _ := s.Get(k); string(got) != want {
						t.Errorf("%s = %q, want %q (installed, though never acknowledged)", k, got, want)
					}
				}
				// One record per installed commit, whoever calls the pipeline
				// and whatever fails at the boundary — which adds nothing to
				// the log. A cross-shard commit reaches the log in one call
				// carrying its participant set, for a durable log to write it
				// as one record.
				var records, cross int64
				for _, l := range logs {
					records += l.records.Load()
					cross += l.cross.Load()
				}
				if records != out.records || cross != out.epochs {
					t.Errorf("records=%d cross-shard records=%d, want %d/%d", records, cross, out.records, out.epochs)
				}
			})
		}
	}
}

// one is a standalone replicated record: key=val on shard.
func one(shard int, key, val string) Replicated {
	return Replicated{Shards: []int{shard}, Writes: []map[string][]byte{{key: []byte(val)}}}
}

// keyOn returns a key owned by the given shard.
func keyOn(t *testing.T, s *Store, shard int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		if k := "bk" + strconv.Itoa(i); s.ShardOf(k) == shard {
			return k
		}
	}
	t.Fatalf("no key found on shard %d", shard)
	return ""
}
