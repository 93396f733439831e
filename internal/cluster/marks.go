package cluster

import (
	"encoding/binary"
	"fmt"

	"afraid/internal/nvram"
)

// marksMagic heads the volume's persisted marking memory: the dirty map
// plus one stale map per node, the cluster's whole recovery state. The
// dirty map is the engine's (internal/nvram); this file only wraps the
// stale maps around it, so both ride in one image. With no NVRAM
// configured the marks are memory-only (a volume-host crash then costs
// a full parity rebuild, exactly like running an array without NVRAM).
const marksMagic = "AFCLMK1\n"

// composeMarks is the engine's image hook: called outside every lock
// with the dirty map it just snapshotted, it appends the stale maps as
// they are now — never older than the dirty map beside them, which is
// why every site changes its stale bits before it clears a dirty one.
func (v *Volume) composeMarks(dirty []byte) []byte {
	blob := make([]byte, 0, len(marksMagic)+4+(len(v.nodes)+1)*(4+len(dirty)))
	blob = append(blob, marksMagic...)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(v.nodes)))
	blob = appendBlob(blob, dirty)
	v.meta.Lock()
	defer v.meta.Unlock()
	for _, m := range v.nodes {
		blob = appendBlob(blob, m.stale.Serialize())
	}
	return blob
}

func appendBlob(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func takeBlob(src []byte) (blob, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("truncated length")
	}
	n := binary.LittleEndian.Uint32(src)
	src = src[4:]
	if uint32(len(src)) < n {
		return nil, nil, fmt.Errorf("truncated blob")
	}
	return src[:n], src[n:], nil
}

// parseMarks is the engine's load hook, run once at Open: it hands the
// dirty map back to the engine and installs the stale maps — all of
// them or, when any part of the image is unusable, none.
func (v *Volume) parseMarks(img []byte) (dirty []byte, err error) {
	defer func() {
		if err != nil {
			v.logf("cluster: marking memory unusable (%v); recovering with full parity rebuild", err)
		}
	}()
	if len(img) < len(marksMagic)+4 || string(img[:len(marksMagic)]) != marksMagic {
		return nil, fmt.Errorf("bad magic")
	}
	rest := img[len(marksMagic):]
	if n := binary.LittleEndian.Uint32(rest); int(n) != len(v.nodes) {
		return nil, fmt.Errorf("image for %d nodes, volume has %d", n, len(v.nodes))
	}
	rest = rest[4:]
	// The dirty map is parsed here as well as by the engine, so that a bad
	// one rejects the stale maps with it.
	maps := make([]*nvram.Bitmap, 1+len(v.nodes))
	for i := range maps {
		var blob []byte
		if blob, rest, err = takeBlob(rest); err != nil {
			return nil, err
		}
		if i == 0 {
			dirty = blob
		}
		if maps[i], err = nvram.Deserialize(blob); err != nil {
			return nil, err
		}
		if got := maps[i].Stripes(); got != v.geo.Stripes() {
			return nil, fmt.Errorf("map %d for %d stripes, volume has %d", i, got, v.geo.Stripes())
		}
	}
	v.meta.Lock()
	for i, m := range v.nodes {
		m.stale = maps[1+i]
	}
	v.meta.Unlock()
	return dirty, nil
}
