package engine

import (
	"fmt"
	"testing"
)

// TestEntityIndexCollisions: IDs that share a whole hash (so a tag and a
// probe start) are told apart by the ID check, and a miss on that hash
// still ends at an empty slot.
func TestEntityIndexCollisions(t *testing.T) {
	var x entityIndex
	ids := []string{"a", "b", "c"}
	for row := range ids {
		x.add(ids, 42, row)
	}
	for row, id := range ids {
		if got, ok := x.find(ids, id, 42); !ok || got != row {
			t.Errorf("find(%q) = %d, %v; want %d", id, got, ok, row)
		}
	}
	if row, ok := x.find(ids, "d", 42); ok {
		t.Errorf("find(d) = %d, want a miss", row)
	}
}

// TestEntityIndexGrowth: every ID stays findable, at its row, across the
// rehashes of a growing index, and absent IDs miss.
func TestEntityIndexGrowth(t *testing.T) {
	var x entityIndex
	var ids []string
	for row := 0; row < 100000; row++ {
		id := fmt.Sprintf("item-%06d", row)
		if _, ok := x.find(ids, id, hashEntity(id)); ok {
			t.Fatalf("%s found before it was added", id)
		}
		ids = append(ids, id)
		x.add(ids, hashEntity(id), row)
	}
	if 2*x.n > len(x.slots) {
		t.Errorf("%d entries in %d slots: more than half full", x.n, len(x.slots))
	}
	for row, id := range ids {
		if got, ok := x.find(ids, id, hashEntity(id)); !ok || got != row {
			t.Fatalf("find(%s) = %d, %v; want %d", id, got, ok, row)
		}
	}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("other-%d", i)
		if row, ok := x.find(ids, id, hashEntity(id)); ok {
			t.Fatalf("find(%s) = %d, want a miss", id, row)
		}
	}
}
