package main

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/euastar/euastar/internal/storage"
)

// fsCounters counts one class of durable writes.
type fsCounters struct {
	writes, bytes, syncs, renames, syncNs atomic.Int64
}

// timingFS is the storage.FS the traced euad run hands the daemon
// (server.Config.FS). It forwards every call to the real filesystem and,
// while on, counts writes, bytes, fsyncs and renames and times the
// fsyncs, split into the job journal and the sweep checkpoints.
type timingFS struct {
	inner         storage.FS
	on            atomic.Bool
	journal, ckpt fsCounters
}

func newTimingFS() *timingFS { return &timingFS{inner: storage.OS()} }

// class maps a path onto its counters: files in a "checkpoints"
// directory are sweep checkpoints, everything else the journal.
func (t *timingFS) class(dir string) *fsCounters {
	if filepath.Base(dir) == "checkpoints" {
		return &t.ckpt
	}
	return &t.journal
}

func (t *timingFS) wrap(f storage.File, err error) (storage.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t, c: t.class(filepath.Dir(f.Name()))}, nil
}

func (t *timingFS) ReadFile(name string) ([]byte, error) { return t.inner.ReadFile(name) }

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	return t.wrap(t.inner.OpenFile(name, flag, perm))
}

func (t *timingFS) CreateTemp(dir, pattern string) (storage.File, error) {
	return t.wrap(t.inner.CreateTemp(dir, pattern))
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	if t.on.Load() {
		t.class(filepath.Dir(newpath)).renames.Add(1)
	}
	return t.inner.Rename(oldpath, newpath)
}

func (t *timingFS) Remove(name string) error { return t.inner.Remove(name) }

func (t *timingFS) MkdirAll(path string, perm os.FileMode) error { return t.inner.MkdirAll(path, perm) }

func (t *timingFS) SyncDir(dir string) error {
	if !t.on.Load() {
		return t.inner.SyncDir(dir)
	}
	start := time.Now()
	err := t.inner.SyncDir(dir)
	c := t.class(dir)
	c.syncs.Add(1)
	c.syncNs.Add(int64(time.Since(start)))
	return err
}

type timingFile struct {
	storage.File
	fs *timingFS
	c  *fsCounters
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.fs.on.Load() {
		f.c.writes.Add(1)
		f.c.bytes.Add(int64(n))
	}
	return n, err
}

func (f *timingFile) Sync() error {
	if !f.fs.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.c.syncs.Add(1)
	f.c.syncNs.Add(int64(time.Since(start)))
	return err
}

// addStorageLayer reports both classes' counters per traced round.
func (t *timingFS) addStorageLayer(r *report, rounds int) {
	n := float64(rounds)
	for _, cl := range []struct {
		name string
		c    *fsCounters
	}{{"journal", &t.journal}, {"ckpt", &t.ckpt}} {
		p := "storage." + cl.name + "."
		r.layer[p+"writes"] = float64(cl.c.writes.Load()) / n
		r.layer[p+"bytes"] = float64(cl.c.bytes.Load()) / n
		r.layer[p+"syncs"] = float64(cl.c.syncs.Load()) / n
		r.layer[p+"sync_s"] = float64(cl.c.syncNs.Load()) / 1e9 / n
		if cl.name == "ckpt" {
			r.layer[p+"renames"] = float64(cl.c.renames.Load()) / n
		}
	}
}
