package fault

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"afraid/internal/core"
)

// A power cut inside a full-stripe write, at every device write it makes:
// in every organisation the stripe must come back marked or with
// consistent parity, never neither — the mark is durable before the
// first byte moves and is cleared only after the last. The same write
// issued again heals the stripe without reading a byte of what the cut
// left behind.
func TestPowerCutInsideFullStripeWrite(t *testing.T) {
	const (
		disks  = 5
		unit   = 512
		stripe = 1
	)
	for _, row := range []struct {
		mode core.Mode
		both bool
	}{{core.Afraid, false}, {core.Afraid6, false}, {core.Afraid6, true}, {core.Raid5, false}, {core.Raid6, false}} {
		for _, checksums := range []bool{false, true} {
			opts := core.Options{Mode: row.mode, StripeUnit: unit, Checksums: checksums, DisableScrubber: true}
			devWrites := disks // one per unit of the stripe
			if checksums {
				devWrites *= 2 // and one per checksum slot
			}
			for cut := 1; cut <= devWrites; cut++ {
				name := fmt.Sprintf("%v/both=%v/checksums=%v/cut=%d", row.mode, row.both, checksums, cut)
				line := NewPowerLine()
				backings := make([]core.BlockDevice, disks)
				for i := range backings {
					backings[i] = core.NewMemDevice(16 * unit)
				}
				nv := &core.MemNVRAM{}
				open := func(seed int64) *core.Store {
					devs := Wrap(backings, seed)
					for _, d := range devs {
						d.OnLine(line)
					}
					st, err := core.Open(Devices(devs), nv, opts)
					if err == nil && row.both {
						err = st.SetSync(0, st.Capacity(), 0)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return st
				}
				st := open(int64(cut))
				sdb := st.Geometry().StripeDataBytes()
				old, fresh := bytes.Repeat([]byte{0xAA}, int(sdb)), bytes.Repeat([]byte{0x55}, int(sdb))
				if _, err := st.WriteAt(old, stripe*sdb); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := st.Flush(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				line.CutAfter(int64(cut))
				if _, err := st.WriteAt(fresh, stripe*sdb); !errors.Is(err, ErrPowerCut) {
					t.Fatalf("%s: write across the cut returned %v", name, err)
				}
				img, _ := nv.Load() // the store is abandoned, not shut down: its close never lands
				st.Close()
				nv.Store(img)
				line.Restore()
				st = open(int64(cut) + 100)

				marked := slices.Contains(st.DirtyList(), stripe)
				bad, err := st.CheckParity()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !marked && slices.Contains(bad, stripe) {
					t.Fatalf("%s: the stripe came back unmarked with inconsistent parity", name)
				}

				if _, err := st.WriteAt(fresh, stripe*sdb); err != nil {
					t.Fatalf("%s: the write issued again: %v", name, err)
				}
				if slices.Contains(st.DirtyList(), stripe) {
					t.Fatalf("%s: the stripe is still marked after a completed full-stripe write", name)
				}
				if bad, err := st.CheckParity(); err != nil || len(bad) != 0 {
					t.Fatalf("%s: CheckParity after the write issued again = %v, %v", name, bad, err)
				}
				got := make([]byte, sdb)
				if _, err := st.ReadAt(got, stripe*sdb); err != nil || !bytes.Equal(got, fresh) {
					t.Fatalf("%s: read back after the write issued again: err %v", name, err)
				}
				st.Close()
			}
		}
	}
}

// The aligned op class reaches the store's full-stripe write in every
// organisation that keeps parity, through crashes, member failures and
// repairs — the gate afraidchaos holds a whole run to.
func TestEpisodeAlignedOpsAreFullStripeWrites(t *testing.T) {
	for _, m := range []core.Mode{core.Afraid, core.Raid5, core.Raid6, core.Afraid6} {
		res := runOne(t, 11, Config{Mode: m, PowerCut: true, DiskFails: 1, Repair: true, Checksums: true})
		if res.Stats["core.full_stripe_writes"] == 0 {
			t.Errorf("mode %v: no full-stripe write in an episode", m)
		}
	}
}
