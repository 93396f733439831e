package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// TestFileNVRAMStoreSyncsDirectory: Store's rename is durable only once
// the directory holding the image is synced, so Store syncs that
// directory after the rename and returns what the sync returns.
func TestFileNVRAMStoreSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	n := NewFileNVRAM(filepath.Join(dir, "marks"))
	if err := n.Store([]byte("one")); err != nil {
		t.Fatal(err)
	}

	errSync := errors.New("directory sync failed")
	var synced []string
	n.syncDir = func(d string) error {
		synced = append(synced, d)
		return errSync
	}
	if err := n.Store([]byte("two")); !errors.Is(err, errSync) {
		t.Fatalf("Store = %v, want the directory sync's error", err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("synced %q, want the image's directory %q once", synced, dir)
	}
	if img, err := n.Load(); err != nil || !bytes.Equal(img, []byte("two")) {
		t.Fatalf("Load = %q, %v: the rename comes before the directory sync", img, err)
	}
}
