package brb

// Ordering tests for the continuation-style commit path (run under
// -race by the Makefile's race target): with commit verification fanned
// out as detached continuations on a work-stealing lane runtime — no
// coordinator goroutines — per-origin FIFO and exactly-once delivery
// must survive concurrent origins AND a concurrent stream of resent
// commits from the origins' own endpoints, which re-inject COMMITTABs for
// instances the receivers have already committed, are mid-verification
// on, or have not yet been sent a commit for.

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
		// The storm: origins 0 and 2 resend valid COMMITTABs for their
		// own slots, cycling through the live range, to members 3 and 1
		// respectively — duplicates of the commits the protocol sends,
		// which the receiver must dedupe mid-stream, and early copies
		// that race the PREPARE and the protocol's own commit.
		resends := func(origin types.ReplicaID) [][]byte {
			out := make([][]byte, per)
			for i := range out {
				out[i] = signCommitFor(t, h, origin, uint64(i+1), []byte(fmt.Sprintf("r%d-m%d", origin, i)))
			}
			return out
		}
		from0, from2 := resends(0), resends(2)

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

		stop := make(chan struct{})
		var storm sync.WaitGroup
		storm.Add(1)
		go func() {
			defer storm.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = h.muxes[0].Send(transport.ReplicaNode(3), transport.ChanBRB, from0[i%per])
				_ = h.muxes[2].Send(transport.ReplicaNode(1), transport.ChanBRB, from2[i%per])
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
