package brb

// Ordering tests for the continuation-style commit path (run under
// -race by the Makefile's race target): with commit verification fanned
// out as detached continuations on a work-stealing lane runtime — no
// coordinator goroutines — per-origin FIFO and exactly-once delivery
// must survive concurrent origins AND a concurrent stream of
// NACK-triggered resends, which re-inject full commits for instances the
// receivers have already committed or are mid-verification on.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"astro/internal/crypto/verifier"
	"astro/internal/sched"
	"astro/internal/transport"
	"astro/internal/types"
)

func TestSignedContinuationOrderingUnderNackResends(t *testing.T) {
	t.Run("lazy", func(t *testing.T) {
		rt := sched.New(4)
		t.Cleanup(rt.Close)
		pool := verifier.New(0, verifier.WithRuntime(rt))
		t.Cleanup(pool.Close)
		h := newHarness(t, protoSigned, 4, func(c *Config) { c.Verifier = pool })

		const per = 12
		var origins sync.WaitGroup
		for r := 0; r < 4; r++ {
			origins.Add(1)
			go func(r int) {
				defer origins.Done()
				for i := 0; i < per; i++ {
					if _, err := h.bcs[r].Broadcast([]byte(fmt.Sprintf("r%d-m%d", r, i))); err != nil {
						panic(err)
					}
				}
			}(r)
		}

		// The storm: members 3 and 1 NACK a chain digest that no
		// definition will ever satisfy, against slots that cycle
		// through the live range. Committed instances answer with a
		// full (tabled) resend — a duplicate COMMIT the receiver must
		// dedupe mid-stream; uncommitted ones clear their sent-sets,
		// racing the origin's own definition bookkeeping.
		stop := make(chan struct{})
		var storm sync.WaitGroup
		storm.Add(1)
		go func() {
			defer storm.Done()
			ghost := types.HashBytes([]byte("no-such-chain"))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				slot := uint64(i%per + 1)
				nack := EncodeChainNack(0, slot, []types.Digest{ghost})
				_ = h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, nack)
				nack = EncodeChainNack(2, slot, []types.Digest{ghost})
				_ = h.muxes[1].Send(transport.ReplicaNode(2), transport.ChanBRB, nack)
				time.Sleep(200 * time.Microsecond)
			}
		}()

		want := 4 * 4 * per
		if got := h.waitDeliveries(want, 30*time.Second); got != want {
			t.Fatalf("deliveries = %d, want %d", got, want)
		}
		origins.Wait()
		close(stop)
		storm.Wait()
		// Let in-flight resends land before the exactly-once audit.
		time.Sleep(100 * time.Millisecond)

		for r := 0; r < 4; r++ {
			slots := make(map[types.ReplicaID][]uint64)
			for _, d := range h.deliveriesAt(types.ReplicaID(r)) {
				slots[d.origin] = append(slots[d.origin], d.slot)
			}
			for o := 0; o < 4; o++ {
				got := slots[types.ReplicaID(o)]
				if len(got) != per {
					t.Fatalf("replica %d delivered origin %d %d times, want %d (exactly-once violated)",
						r, o, len(got), per)
				}
				for i, s := range got {
					if s != uint64(i+1) {
						t.Fatalf("replica %d, origin %d: delivery %d has slot %d — FIFO violated",
							r, o, i, s)
					}
				}
			}
		}
	})
}
