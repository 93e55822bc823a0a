package globalfp

import "testing"

// TestInboxDeliversInSendOrder: budgeted takes interleaved with pushes
// must hand out messages exactly in push order, across the compactions
// that reclaim the consumed prefix — the protocol's Grant-before-Revoke
// and RefUp-before-Ack orderings depend on it.
func TestInboxDeliversInSendOrder(t *testing.T) {
	var in inbox
	var buf []message
	sent, got := 0, 0
	for round := 0; round < 200; round++ {
		for k := 0; k < round%7+1; k++ {
			in.push(message{from: sent})
			sent++
		}
		budget := round % 5
		if round%11 == 0 {
			budget = -1
		}
		buf = in.take(buf[:0], budget)
		for _, m := range buf {
			if m.from != got {
				t.Fatalf("round %d: delivered message %d, want %d", round, m.from, got)
			}
			got++
		}
		if in.len() != sent-got {
			t.Fatalf("round %d: len %d, want %d pending", round, in.len(), sent-got)
		}
	}
	buf = in.take(buf[:0], -1)
	for _, m := range buf {
		if m.from != got {
			t.Fatalf("drain: delivered message %d, want %d", m.from, got)
		}
		got++
	}
	if got != sent || in.len() != 0 {
		t.Fatalf("delivered %d of %d, %d left", got, sent, in.len())
	}
}
