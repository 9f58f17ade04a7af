package core

import (
	"cmp"
	"fmt"
	"slices"

	"astro/internal/types"
)

// endorseWindow is a replica's endorsement memory — the double-spend check
// of the broadcast layer (paper §II): never endorse two different payments
// for one identifier. The check only ever concerns a spender's next few
// sequence numbers, so the memory holds only what is in flight: per
// spender, the payments endorsed (or, at the representative, reserved at
// submission) for sequence numbers above the spender's settled xlog
// length, ascending by sequence number. A settled identifier is answered
// by the xlog itself (State.SettledAt), which is pruned from here right
// after settlement; a spender with nothing in flight holds no entry.
//
// Payments of one spender are endorsed in sequence order in normal
// operation, so lookups and insertions are a compare against the slice
// tail; gaps and late arrivals fall back to binary search.
type endorseWindow map[types.ClientID][]types.Payment

func (w endorseWindow) search(c types.ClientID, seq types.Seq) (int, bool) {
	return slices.BinarySearchFunc(w[c], seq, func(p types.Payment, s types.Seq) int {
		return cmp.Compare(p.Seq, s)
	})
}

// bind records p for its identifier unless the identifier is already
// bound, and returns the payment the identifier is bound to afterwards —
// p itself, or the earlier payment p must be compared against.
func (w endorseWindow) bind(p types.Payment) (bound types.Payment, inserted bool) {
	ps := w[p.Spender]
	if n := len(ps); n == 0 || p.Seq > ps[n-1].Seq {
		w[p.Spender] = append(ps, p)
		return p, true
	}
	i, found := w.search(p.Spender, p.Seq)
	if found {
		return ps[i], false
	}
	w[p.Spender] = slices.Insert(ps, i, p)
	return p, true
}

// release drops p's binding, if its identifier is bound to exactly p.
func (w endorseWindow) release(p types.Payment) {
	i, found := w.search(p.Spender, p.Seq)
	if !found || w[p.Spender][i] != p {
		return
	}
	if ps := slices.Delete(w[p.Spender], i, i+1); len(ps) > 0 {
		w[p.Spender] = ps
	} else {
		delete(w, p.Spender)
	}
}

// prune drops c's bindings for sequence numbers up to and including
// settled — the identifiers the xlog now answers for.
func (w endorseWindow) prune(c types.ClientID, settled types.Seq) {
	ps := w[c]
	n := 0
	for n < len(ps) && ps[n].Seq <= settled {
		n++
	}
	switch {
	case n == 0:
	case n == len(ps):
		delete(w, c)
	default:
		w[c] = ps[n:]
	}
}

// nextFree returns the lowest sequence number at or above from that c has
// no binding for.
func (w endorseWindow) nextFree(c types.ClientID, from types.Seq) types.Seq {
	for _, p := range w[c] {
		if p.Seq > from {
			break
		}
		if p.Seq == from {
			from++
		}
	}
	return from
}

// read binds a run of 32-byte payment bodies — a recEndorse record, or an
// image's endorsement section — into the window.
func (w endorseWindow) read(data []byte) error {
	if len(data)%types.PaymentWireSize != 0 {
		return fmt.Errorf("core: endorsement run of %d bytes", len(data))
	}
	for ; len(data) > 0; data = data[types.PaymentWireSize:] {
		var p types.Payment
		if err := p.UnmarshalBinary(data[:types.PaymentWireSize]); err != nil {
			return err
		}
		w.bind(p)
	}
	return nil
}
