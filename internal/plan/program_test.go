package plan

import (
	"testing"
	"unsafe"
)

// TestNodeSize pins the flat layout: a compiled node holds int32 spans
// into its program's arrays instead of slices, so it stays within 80
// bytes (it was 224 with eight slice headers).
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 80 {
		t.Fatalf("plan.Node is %d bytes, want at most 80", size)
	}
}
