package engine

// Torn-write and corruption handling in the staged-chunk WAL: damage to
// a WAL generation file must never fail recovery — the intact record
// prefix of that file replays, everything after the first bad frame is
// dropped, and all other shards are untouched.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sqlparse"
)

// walFixture builds a durable table whose rows live ONLY in the WAL
// (huge segment size: nothing seals, no checkpoint is written), then
// abandons it without Close — simulating a crash. Returns the storage
// config, per-shard entity IDs in insertion order, and the table dir.
func walFixture(t *testing.T) (cfg StorageConfig, byShard [numShards][]string, tableDir string) {
	t.Helper()
	cfg = StorageConfig{
		Backend:     BackendDisk,
		Dir:         t.TempDir(),
		Durable:     true,
		SegmentRows: 4096,
		WALSync:     1,
	}
	db := Open(WithBackend(cfg))
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		id := fmt.Sprintf("e%03d", i)
		err := tbl.Insert(id, "s0", map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		si, _ := tbl.shardIndexFor(id)
		byShard[si] = append(byShard[si], id)
	}
	// No Close: the process "crashed" with everything in the WAL.
	return cfg, byShard, filepath.Join(cfg.Dir, "t")
}

// walFileFor returns the single WAL generation file of shard si.
func walFileFor(t *testing.T, tableDir string, si int) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(tableDir, fmt.Sprintf("shard%02d-*.wal", si)))
	if err != nil || len(matches) != 1 {
		t.Fatalf("shard %d: want exactly one WAL generation, got %v (err %v)", si, matches, err)
	}
	return matches[0]
}

func hasEntity(tbl *Table, id string) bool {
	_, sh := tbl.shardIndexFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.store.Lookup(id)
	return ok
}

func TestWALCorruptionRecovery(t *testing.T) {
	// lost reports how many of the target shard's trailing rows each
	// corruption destroys; -1 means "all rows of that shard".
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
		lost    int
	}{
		{
			name: "truncated mid-frame",
			corrupt: func(t *testing.T, path string) {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(path, fi.Size()-3); err != nil {
					t.Fatal(err)
				}
			},
			lost: 1,
		},
		{
			name: "checksum flip in last frame",
			corrupt: func(t *testing.T, path string) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-1] ^= 0xff
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			lost: 1,
		},
		{
			name: "torn header at tail",
			corrupt: func(t *testing.T, path string) {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{0x10, 0, 0, 0, 0xab}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			lost: 0,
		},
		{
			name: "garbage frame at tail",
			corrupt: func(t *testing.T, path string) {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				junk := make([]byte, 64)
				for i := range junk {
					junk[i] = byte(i * 7)
				}
				if _, err := f.Write(junk); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			lost: 0,
		},
		{
			name: "checksum flip in first frame",
			corrupt: func(t *testing.T, path string) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(walMagic)+8] ^= 0xff
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			lost: -1,
		},
		{
			name: "truncated to bare magic",
			corrupt: func(t *testing.T, path string) {
				if err := os.Truncate(path, int64(len(walMagic))); err != nil {
					t.Fatal(err)
				}
			},
			lost: -1,
		},
		{
			name: "truncated inside magic",
			corrupt: func(t *testing.T, path string) {
				if err := os.Truncate(path, 4); err != nil {
					t.Fatal(err)
				}
			},
			lost: -1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, byShard, tableDir := walFixture(t)
			target := -1
			for si := range byShard {
				if len(byShard[si]) >= 3 {
					target = si
					break
				}
			}
			if target < 0 {
				t.Fatal("no shard holds >= 3 rows; fixture too small")
			}
			tc.corrupt(t, walFileFor(t, tableDir, target))

			rt, err := recoverTable("t", resolveStorage(cfg))
			if err != nil {
				t.Fatalf("recovery must survive WAL damage, got: %v", err)
			}
			defer rt.Close()

			lost := tc.lost
			if lost < 0 {
				lost = len(byShard[target])
			}
			for si, ids := range byShard {
				for i, id := range ids {
					want := si != target || i < len(ids)-lost
					if got := hasEntity(rt, id); got != want {
						t.Errorf("shard %d row %d (%s): present=%v, want %v", si, i, id, got, want)
					}
				}
			}
		})
	}
}

// TestWALRecoveryIdempotent: recovering, closing cleanly and recovering
// again must not duplicate or drop rows (the replayed tail is re-logged
// under the fresh generation and checkpointed on close).
func TestWALRecoveryIdempotent(t *testing.T) {
	cfg, byShard, _ := walFixture(t)
	total := 0
	for _, ids := range byShard {
		total += len(ids)
	}

	for round := 0; round < 3; round++ {
		rt, err := recoverTable("t", resolveStorage(cfg))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := rt.NumRecords(); got != total {
			t.Fatalf("round %d: %d records, want %d", round, got, total)
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
	}
}
