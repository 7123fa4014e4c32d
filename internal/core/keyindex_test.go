package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bpagg/internal/bitvec"
)

// TestKeyIndexBudget pins the cardinality refusal on both index kinds: an
// index built with a tiny limit accepts exactly limit distinct keys and
// refuses the next, while repeat lookups of known keys keep succeeding.
func TestKeyIndexBudget(t *testing.T) {
	for _, width := range []int{DirectKeyBits, 40} {
		x := NewKeyIndex(width, 4)
		for k := uint64(0); k < 4; k++ {
			if s, ok := x.Slot(k * 100); !ok || s != int32(k) {
				t.Fatalf("width %d: key %d → slot %d, %v inside the budget", width, k*100, s, ok)
			}
		}
		if _, ok := x.Slot(999); ok {
			t.Fatalf("width %d: 5th distinct key accepted past limit=4", width)
		}
		if s, ok := x.Slot(200); !ok || s != 2 {
			t.Fatalf("width %d: repeat lookup of a known key at the budget = %d, %v", width, s, ok)
		}
		if len(x.Keys) != 4 {
			t.Fatalf("width %d: Keys = %d, want 4", width, len(x.Keys))
		}
	}
}

// TestKeyIndexCounters asserts the analytic counters: every hashed Slot
// call probes at least one position, growing past 50% load doubles the
// table and loses no key, and a direct index counts neither.
func TestKeyIndexCounters(t *testing.T) {
	x := NewKeyIndex(40, MaxHashGroups)
	if _, ok := x.Slot(7); !ok || x.Probes == 0 {
		t.Fatalf("Probes = %d after first Slot, want > 0", x.Probes)
	}
	before := x.Probes
	if s, ok := x.Slot(7); !ok || s != 0 || x.Probes <= before {
		t.Fatalf("repeat Slot(7) = %d, %v with Probes %d → %d", s, ok, before, x.Probes)
	}
	// keyIndexMinCap positions grow at 50% load: the 33rd key must have
	// doubled the table at least once.
	for k := uint64(0); k < 40; k++ {
		x.Slot(100 + k)
	}
	if x.Growths == 0 {
		t.Fatalf("Growths = 0 after %d keys in a %d-position table", len(x.Keys), keyIndexMinCap)
	}
	// Every key must survive the rehash, in its slot.
	for k := uint64(0); k < 40; k++ {
		if s, ok := x.Slot(100 + k); !ok || s != int32(1+k) {
			t.Fatalf("key %d → slot %d, %v across growth, want %d", 100+k, s, ok, 1+k)
		}
	}

	d := NewKeyIndex(DirectKeyBits, MaxHashGroups)
	for k := uint64(0); k < 1<<DirectKeyBits; k++ {
		d.Slot(k)
	}
	if d.Probes != 0 || d.Growths != 0 || len(d.Keys) != 1<<DirectKeyBits {
		t.Fatalf("direct index: Probes %d Growths %d Keys %d, want 0 0 %d", d.Probes, d.Growths, len(d.Keys), 1<<DirectKeyBits)
	}
}

// runRows expands a run list into its (row, id) pairs.
func runRows[K int32 | uint64](t *testing.T, r *Runs[K], vps int) map[int]K {
	t.Helper()
	if len(r.Start) != len(r.Segs)+1 || int(r.Start[len(r.Segs)]) != len(r.ID) || len(r.ID) != len(r.W) {
		t.Fatalf("malformed run list: %d runs, Start %v, %d ids, %d words", len(r.Segs), r.Start, len(r.ID), len(r.W))
	}
	rows := map[int]K{}
	for i, seg := range r.Segs {
		if i > 0 && seg <= r.Segs[i-1] {
			t.Fatalf("runs not strictly ascending: %v", r.Segs)
		}
		if r.Start[i] >= r.Start[i+1] {
			t.Fatalf("run %d is empty", i)
		}
		seen := map[K]bool{}
		for e := r.Start[i]; e < r.Start[i+1]; e++ {
			if seen[r.ID[e]] || r.W[e] == 0 {
				t.Fatalf("window %d: id %d twice or with an empty word", seg, r.ID[e])
			}
			seen[r.ID[e]] = true
			for b := 0; b < vps; b++ {
				if r.W[e]>>uint(b)&1 != 0 {
					row := int(seg)*vps + b
					if _, dup := rows[row]; dup {
						t.Fatalf("row %d banked twice", row)
					}
					rows[row] = r.ID[e]
				}
			}
		}
	}
	return rows
}

// rewindow collects the windows a cursor over all of src yields.
func rewindow[K int32 | uint64](src *Runs[K], from, to int, skip *bitvec.Bitmap) *Runs[K] {
	c := NewCursor(src, from, to, 0, math.MaxInt32, skip)
	return c.Collect()
}

// TestRewindowRunList checks that the cursor re-cuts a run list keeping
// exactly the (row, id) pairs it held: a round trip between 64-value
// windows and every HBP window size, with gaps between runs, ids that
// spill across adjacent target windows, and the same id arriving in one
// target window from two source windows (which must OR into one entry, the
// invariant the banked kernels rely on). Cursors over adjacent window
// ranges — how workers split a list — concatenate to the whole, and a skip
// bitmap drops exactly its rows.
func TestRewindowRunList(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for vps := 1; vps <= 64; vps++ {
		for _, pair := range [][2]int{{64, vps}, {vps, 64}} {
			from, to := pair[0], pair[1]
			src := NewRuns[uint64](0, 0)
			seg := int32(-1)
			for len(src.Segs) < 40 {
				seg += int32(1 + rng.Intn(3)/2) // mostly adjacent windows, some gaps
				// Few ids over many rows: every id straddles window
				// boundaries and recurs in neighbouring windows.
				var ws [3]uint64
				for b := 0; b < from; b++ {
					if id := rng.Intn(4); id < 3 {
						ws[id] |= 1 << uint(b)
					}
				}
				for id, w := range ws {
					if w != 0 {
						src.Merge(seg, []uint64{uint64(id)}, []uint64{w})
					}
				}
			}
			want := runRows(t, src, from)

			re := rewindow(src, from, to, nil)
			got := runRows(t, re, to)
			if len(got) != len(want) {
				t.Fatalf("%d→%d: %d rows, want %d", from, to, len(got), len(want))
			}
			for row, id := range want {
				if g, ok := got[row]; !ok || g != id {
					t.Fatalf("%d→%d: row %d has id %d (present %v), want %d", from, to, row, g, ok, id)
				}
			}
			back := runRows(t, rewindow(re, to, from, nil), from)
			if len(back) != len(want) {
				t.Fatalf("%d→%d→%d: %d rows, want %d", from, to, from, len(back), len(want))
			}

			nwin := (int(seg)+1)*from/to + 1
			split := NewRuns[uint64](0, 0)
			for lo := 0; lo < nwin; lo += 7 {
				c := NewCursor(src, from, to, lo, min(lo+7, nwin), nil)
				for c.Next() {
					split.Merge(c.Window())
				}
			}
			if !reflect.DeepEqual(split, re) {
				t.Fatalf("%d→%d: cursors over 7-window ranges differ from one over all", from, to)
			}

			skip := bitvec.New((int(seg) + 1) * from)
			for row := range want {
				if rng.Intn(3) == 0 {
					skip.Set(row)
				}
			}
			kept := runRows(t, rewindow(src, from, to, skip), to)
			for row, id := range want {
				if g, ok := kept[row]; ok == skip.Get(row) || ok && g != id {
					t.Fatalf("%d→%d: row %d (skipped %v) kept %v as id %d, want id %d", from, to, row, skip.Get(row), ok, g, id)
				}
			}
		}
	}
}

// Merge appends entries to window seg, which must not precede the last
// run: a new run, or a continuation of the last one, in which an id the
// run already holds ORs in place. Tests build run lists with it.
func (r *Runs[K]) Merge(seg int32, ids []K, ws []uint64) {
	n := len(r.Segs)
	lo, hi := len(r.ID), len(r.ID)
	if n > 0 && r.Segs[n-1] == seg {
		lo = int(r.Start[n-1])
	} else {
		r.Segs = append(r.Segs, seg)
		r.Start = append(r.Start, 0)
		n++
	}
next:
	for i, id := range ids {
		for e := lo; e < hi; e++ {
			if r.ID[e] == id {
				r.W[e] |= ws[i]
				continue next
			}
		}
		r.ID = append(r.ID, id)
		r.W = append(r.W, ws[i])
	}
	r.Start[n] = int32(len(r.ID))
}
