package blockd

import (
	"testing"

	"riotshare/internal/blockproto"
)

// A connection keeps the larger of its buffers for the next frame, but
// never one an oversized frame grew past blockproto.MaxKeptBuffer.
func TestReuseBoundsKeptBuffers(t *testing.T) {
	kept := make([]byte, 0, 1024)
	if got := reuse(kept, make([]byte, 10)); cap(got) != 1024 {
		t.Errorf("a smaller used buffer replaced the kept one: cap %d", cap(got))
	}
	if got := reuse(kept, make([]byte, 5, 4096)); cap(got) != 4096 || len(got) != 0 {
		t.Errorf("a grown buffer should be kept empty: len %d cap %d", len(got), cap(got))
	}
	if got := reuse(kept, make([]byte, blockproto.MaxKeptBuffer+1)); got != nil {
		t.Errorf("an oversized buffer was kept: cap %d", cap(got))
	}
}
