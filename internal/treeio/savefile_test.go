package treeio

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
)

// smallTree builds a tiny but non-trivial tree for the SaveFile tests.
func smallTree(t *testing.T) *ctree.Tree {
	t.Helper()
	ds := &dataset.Dataset{Dims: 3, Points: [][]float64{
		{0.1, 0.2, 0.3}, {0.15, 0.22, 0.31}, {0.8, 0.7, 0.6}, {0.82, 0.71, 0.66},
		{0.4, 0.5, 0.9}, {0.41, 0.52, 0.91},
	}}
	tree, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// tmpLeftovers lists stranded SaveFile temp files in dir.
func tmpLeftovers(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestSaveFileSyncFailureLeavesNoTemp injects an fsync failure and
// pins the durability contract's error path: SaveFile must report the
// failure, must not install the target file, and must not strand the
// temporary file — the snapshot directory a long-running service
// rotates continuously stays clean.
func TestSaveFileSyncFailureLeavesNoTemp(t *testing.T) {
	tree := smallTree(t)
	dir := t.TempDir()
	boom := errors.New("injected fsync failure")
	orig := syncFile
	syncFile = func(*os.File) error { return boom }
	defer func() { syncFile = orig }()

	path := filepath.Join(dir, "tree.snap")
	written, err := SaveFile(path, tree, Meta{})
	if !errors.Is(err, boom) {
		t.Fatalf("SaveFile = %v, want the injected failure", err)
	}
	if written != 0 {
		t.Fatalf("failed SaveFile reported %d bytes written", written)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("target file exists after a failed save (stat err %v)", err)
	}
	if left := tmpLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("stranded temp files after sync failure: %v", left)
	}
}

// TestSaveFileRenameFailureLeavesNoTemp injects a rename failure —
// the exact case that used to strand *.tmp files next to the snapshot.
func TestSaveFileRenameFailureLeavesNoTemp(t *testing.T) {
	tree := smallTree(t)
	dir := t.TempDir()
	boom := errors.New("injected rename failure")
	orig := renameFile
	renameFile = func(oldpath, newpath string) error { return boom }
	defer func() { renameFile = orig }()

	path := filepath.Join(dir, "tree.snap")
	if _, err := SaveFile(path, tree, Meta{}); !errors.Is(err, boom) {
		t.Fatalf("SaveFile = %v, want the injected failure", err)
	}
	if left := tmpLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("stranded temp files after rename failure: %v", left)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("target file exists after a failed rename (stat err %v)", err)
	}
}

// TestSaveFileDirSyncFailureKeepsSnapshot injects a failure into the
// directory fsync only (the temp-file fsync succeeds). The rename has
// already happened, so the snapshot must be in place and loadable even
// though SaveFile reports the durability failure — and no temp file
// may remain.
func TestSaveFileDirSyncFailureKeepsSnapshot(t *testing.T) {
	tree := smallTree(t)
	dir := t.TempDir()
	boom := errors.New("injected dir-sync failure")
	orig := syncFile
	syncFile = func(f *os.File) error {
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		if fi.IsDir() {
			return boom
		}
		return orig(f)
	}
	defer func() { syncFile = orig }()

	path := filepath.Join(dir, "tree.snap")
	if _, err := SaveFile(path, tree, Meta{}); !errors.Is(err, boom) {
		t.Fatalf("SaveFile = %v, want the injected dir-sync failure", err)
	}
	if left := tmpLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("stranded temp files after dir-sync failure: %v", left)
	}
	loaded, _, err := LoadFile(path, LoadOptions{})
	if err != nil {
		t.Fatalf("snapshot unloadable after dir-sync failure: %v", err)
	}
	if !ctree.Equal(tree, loaded) {
		t.Fatal("snapshot content diverged")
	}
}

// TestSaveFileSyncsBeforeRename pins the fsync-before-rename ordering:
// the rename must never run when the temp file's sync failed.
func TestSaveFileSyncsBeforeRename(t *testing.T) {
	tree := smallTree(t)
	dir := t.TempDir()
	var order []string
	origSync, origRename := syncFile, renameFile
	syncFile = func(f *os.File) error {
		order = append(order, "sync")
		return origSync(f)
	}
	renameFile = func(oldpath, newpath string) error {
		order = append(order, "rename")
		return origRename(oldpath, newpath)
	}
	defer func() { syncFile, renameFile = origSync, origRename }()

	if _, err := SaveFile(filepath.Join(dir, "tree.snap"), tree, Meta{}); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, ",")
	if got != "sync,rename,sync" {
		t.Fatalf("SaveFile step order = %q, want file sync, then rename, then directory sync", got)
	}
}
