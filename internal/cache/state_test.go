package cache

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"pabst/internal/ckpt"
	"pabst/internal/mem"
)

// ckptHeader is the stream prefix a ckpt.Writer emits before any
// component state, so tests can handle bare SaveState payloads.
var ckptHeader = func() []byte {
	var b bytes.Buffer
	if err := ckpt.NewWriter(&b, ckpt.Header{}).Close(); err != nil {
		panic(err)
	}
	return b.Bytes()[:b.Len()-8] // drop the CRC trailer
}()

// payload returns the bytes s.SaveState writes.
func payload(s ckpt.Saver) []byte {
	var b bytes.Buffer
	w := ckpt.NewWriter(&b, ckpt.Header{})
	s.SaveState(w)
	if err := w.Close(); err != nil {
		panic(err)
	}
	return b.Bytes()[len(ckptHeader) : b.Len()-8]
}

// restore overlays a SaveState payload onto c.
func restore(c *Cache, p []byte) error {
	r, err := ckpt.NewReader(io.MultiReader(bytes.NewReader(ckptHeader), bytes.NewReader(p)))
	if err != nil {
		return err
	}
	c.RestoreState(r)
	return r.Err()
}

var stateCfg = Config{SizeBytes: 4 * 4 * mem.LineSize, Ways: 4, IndexShift: 1}

// warmedRef fills a partitioned reference cache with a mix of classes
// and dirty lines.
func warmedRef() *refCache {
	r := newRef(stateCfg)
	r.Partition(1, 0, 2)
	r.Partition(2, 2, 2)
	for i := 0; i < 48; i++ {
		r.Access(lineAddr(i*5), i%3 == 0, mem.ClassID(i%3))
	}
	return r
}

func TestRestoreRoundTrip(t *testing.T) {
	want := payload(warmedRef())
	c := New(stateCfg)
	if err := restore(c, want); err != nil {
		t.Fatal(err)
	}
	if got := payload(c); !bytes.Equal(got, want) {
		t.Fatal("save after restore differs from the restored checkpoint")
	}
}

// TestRestoreRejectsCorruptLines feeds checkpoints the former layout
// could write but no simulation produces. Each must fail as corrupt
// rather than restore: an out-of-range class used to be accepted and
// then panic the next occupancy sample.
func TestRestoreRejectsCorruptLines(t *testing.T) {
	cases := []struct {
		name string
		mut  func(r *refCache)
	}{
		{"tag 2^58", func(r *refCache) { r.lines[0].tag = 1 << 58 }},
		{"tag max", func(r *refCache) { r.lines[0].tag = 1<<64 - 1 }},
		{"class MaxClasses", func(r *refCache) { r.lines[1].class = mem.MaxClasses }},
		{"class 255", func(r *refCache) { r.lines[1].class = 255 }},
		{"zero stamp", func(r *refCache) { r.lines[2].used = 0 }},
		{"stamp after clock", func(r *refCache) { r.lines[3].used = r.clock + 1 }},
		{"clock past 32 bits", func(r *refCache) { r.clock = 1 << 32 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := warmedRef()
			tc.mut(r)
			c := New(stateCfg)
			err := restore(c, payload(r))
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("restore error = %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzCacheRestore feeds arbitrary SaveState payloads to RestoreState.
// Restore must never panic, and a successful restore must be lossless:
// saving reproduces the bytes it consumed, restoring that again succeeds
// and saves the same bytes, and the restored cache serves accesses and
// occupancy samples without panicking.
func FuzzCacheRestore(f *testing.F) {
	f.Add(payload(warmedRef()))
	f.Add(payload(New(stateCfg)))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(stateCfg)
		if restore(c, data) != nil {
			return
		}
		saved := payload(c)
		if len(saved) > len(data) || !bytes.Equal(saved, data[:len(saved)]) {
			t.Fatal("save after restore differs from the consumed input")
		}
		again := New(stateCfg)
		if err := restore(again, saved); err != nil {
			t.Fatalf("restoring a saved cache: %v", err)
		}
		if !bytes.Equal(payload(again), saved) {
			t.Fatal("save→restore→save is not a fixed point")
		}
		var occ [mem.MaxClasses]int
		again.OccupancyInto(&occ)
		for i := 0; i < 16; i++ {
			again.Access(lineAddr(i*3), i%2 == 0, mem.ClassID(i%3))
			again.Writeback(lineAddr(i*7), 1)
		}
		again.OccupancyInto(&occ)
	})
}
