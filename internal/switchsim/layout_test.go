package switchsim

import (
	"testing"
	"unsafe"

	"tango/internal/flowtable"
	"tango/internal/structlayout"
)

// TestHotStructLayouts gates the arena's per-entry structs on zero padding
// waste. The whole point of the arena is cache density — entries per
// line — so a field added in the wrong place is a perf regression even
// though no benchmark names it.
func TestHotStructLayouts(t *testing.T) {
	for _, v := range []interface{}{
		entry{},
		kernelEntry{},
		flowtable.KeyIndex[int32]{},
		entryArena{},
		handleHeap{},
	} {
		if err := structlayout.Check(v); err != nil {
			t.Error(err)
		}
	}
}

// TestEntrySize caps the arena record at 56 bytes. Zero padding alone would
// let a new slice field (the 24 B kernel-key list once lived here) back in;
// fields only the microflow switch needs belong in handle-indexed side
// slices instead.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 56 {
		t.Fatalf("entry is %d bytes, want at most 56", got)
	}
}
