package engine

// Crash-durability harness: a child process (this test binary re-execed
// with UU_CRASH_DIR set) ingests into a durable disk table and prints
// "acked <entity>" after each acknowledged write; the parent SIGKILLs it
// mid-stream, recovers the directory, and asserts every acknowledged row
// survived. A row is "acknowledged" once Insert returned or once the
// Flush barrier after its Append returned — exactly the durability
// contract the WAL provides under SIGKILL (the frame write reached the
// kernel; no fsync required to survive a process kill).

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

func crashCfg(dir string) StorageConfig {
	return StorageConfig{
		Backend:     BackendDisk,
		Dir:         dir,
		Durable:     true,
		SegmentRows: 64,
		WALSync:     8,
	}
}

// TestCrashChild is the re-exec entry point; it only runs in the child
// (UU_CRASH_DIR set) and never returns — the parent kills it.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("UU_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-harness child entry point; driven by TestCrashRecoverySIGKILL")
	}
	db := Open(WithBackend(crashCfg(dir)))
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		fmt.Println("child-error:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	attrs := func(id string, i int) map[string]sqlparse.Value {
		return map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(i)),
		}
	}
	// Alternate both write paths forever: synchronous Inserts (acked row
	// by row) and Append batches acked at the Flush barrier.
	for i := 0; ; i++ {
		if i%20 < 10 {
			id := fmt.Sprintf("ins%06d", i)
			if err := tbl.Insert(id, "s0", attrs(id, i)); err != nil {
				fmt.Println("child-error:", err)
				os.Exit(1)
			}
			fmt.Fprintf(out, "acked %s\n", id)
		} else {
			id := fmt.Sprintf("app%06d", i)
			if err := tbl.Append(id, "s1", attrs(id, i)); err != nil {
				fmt.Println("child-error:", err)
				os.Exit(1)
			}
			if i%20 == 19 {
				if err := tbl.Flush(); err != nil {
					fmt.Println("child-error:", err)
					os.Exit(1)
				}
				for j := i - 9; j <= i; j++ {
					fmt.Fprintf(out, "acked app%06d\n", j)
				}
			}
		}
		// Acks reach the parent before the next write begins, so every
		// printed row was fully acknowledged pre-kill.
		out.Flush()
	}
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if os.Getenv("UU_CRASH_DIR") != "" {
		t.Skip("parent-only")
	}
	if testing.Short() {
		t.Skip("re-exec harness; skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), "UU_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var acked []string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "child-error:") {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal(line)
		}
		if id, ok := strings.CutPrefix(line, "acked "); ok {
			acked = append(acked, id)
			if len(acked) >= 500 {
				break
			}
		}
	}
	// SIGKILL mid-stream: the child is inside (or between) writes.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(acked) < 500 {
		t.Fatalf("child died early: only %d acks", len(acked))
	}

	db := Open(WithBackend(crashCfg(dir)))
	t.Cleanup(func() { db.Close() })
	names, err := db.RecoverTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "t" {
		t.Fatalf("recovered %v, want [t]", names)
	}
	tbl, _ := db.Table("t")
	missing := 0
	for _, id := range acked {
		if !hasEntity(tbl, id) {
			missing++
			if missing <= 10 {
				t.Errorf("acknowledged row %s lost by SIGKILL", id)
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged rows lost", missing, len(acked))
	}
	// The recovered table must also be queryable and internally coherent.
	if got := tbl.NumRecords(); got < len(acked) {
		t.Fatalf("NumRecords %d < %d acked", got, len(acked))
	}
	if _, err := db.Query("SELECT SUM(v) FROM t"); err != nil {
		t.Fatal(err)
	}
}
