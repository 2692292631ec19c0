package engine

import (
	"fmt"
	"os"
	"testing"
)

// TestMain lets the whole engine test package run against an alternative
// storage backend: UU_ENGINE_BACKEND=disk points every default-configured
// table (NewTable, or a DB opened without WithBackend) at a disk-backed
// store in a temp directory, with a small segment size so seals happen
// constantly. CI runs the package once per backend (see the
// engine-backends matrix in ci.yml); UU_ENGINE_MMAP=off additionally
// forces the ReadAt fallback.
func TestMain(m *testing.M) {
	code, err := runWithBackendEnv(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "engine tests:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func runWithBackendEnv(m *testing.M) (int, error) {
	switch backend := os.Getenv("UU_ENGINE_BACKEND"); backend {
	case "", "mem", "memory":
		return m.Run(), nil
	case "disk":
		dir, err := os.MkdirTemp("", "uu-engine-disk-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		defaultStorage = StorageConfig{
			Backend: BackendDisk,
			Dir:     dir,
			// Small segments so even modest test tables cross several
			// seal boundaries per shard.
			SegmentRows: 256,
			DisableMmap: os.Getenv("UU_ENGINE_MMAP") == "off",
		}
		return m.Run(), nil
	default:
		return 0, fmt.Errorf("unknown UU_ENGINE_BACKEND %q (want mem or disk)", backend)
	}
}
