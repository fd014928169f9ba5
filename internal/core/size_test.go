package core

import (
	"testing"
	"unsafe"

	"repro/internal/testutil"
)

// TestControlPlaneSizes pins what a stack's control plane carries per
// connection: the decode scratch lives in a Scratch shared by every stack
// on one loop, so a Library and a NetlinkPM each hold only a pointer to it.
func TestControlPlaneSizes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sizes are pinned without -race instrumentation")
	}
	if sz := unsafe.Sizeof(Library{}); sz > 192 {
		t.Fatalf("Library is %d bytes, over its pinned 192", sz)
	}
	if sz := unsafe.Sizeof(NetlinkPM{}); sz > 160 {
		t.Fatalf("NetlinkPM is %d bytes, over its pinned 160", sz)
	}
}
