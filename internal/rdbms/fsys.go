package rdbms

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// fileSystem is the pager's seam to the files it names, the data file and
// the WAL segments: every open, whole-file read, removal and listing goes
// through it, and page I/O through the dbFile handles it returns. osFS is
// the real file system (OpenFile); memFS holds the files of an in-memory
// database (Open), which therefore runs the same pager — WAL, checksums,
// checkpoints, poisoning and recovery included.
type fileSystem interface {
	// openData opens the data file read-write, creating it when missing,
	// takes the exclusive lock that keeps a second opener out, and
	// returns the file with its size.
	openData(name string) (dbFile, int64, error)
	// openLog opens a WAL segment read-write, creating it when missing and
	// emptying it when trunc is set.
	openLog(name string, trunc bool) (dbFile, error)
	readFile(name string) ([]byte, error)
	remove(name string) error
	// list returns the names of the files whose name starts with prefix.
	list(prefix string) ([]string, error)
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) openData(name string) (dbFile, int64, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("database %s is locked by another process: %w", name, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

func (osFS) openLog(name string, trunc bool) (dbFile, error) {
	flag := os.O_RDWR | os.O_CREATE
	if trunc {
		flag |= os.O_TRUNC
	}
	return os.OpenFile(name, flag, 0o644)
}

func (osFS) readFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) remove(name string) error { return os.Remove(name) }

func (osFS) list(prefix string) ([]string, error) {
	ents, err := os.ReadDir(filepath.Dir(prefix))
	if err != nil {
		return nil, err
	}
	base := filepath.Base(prefix)
	var out []string
	for _, e := range ents {
		if rest, ok := strings.CutPrefix(e.Name(), base); ok {
			out = append(out, prefix+rest)
		}
	}
	return out, nil
}

// memFS is the file system of an in-memory database: a namespace of
// growable byte slices private to one DB. A file outlives its handles, so a
// reopen (Recover) finds exactly what the last commit left, as on disk.
// openData takes no opener lock: the namespace belongs to one DB, whose
// pager closes its handles before it reopens them.
type memFS struct {
	mu    sync.RWMutex // guards files and every file's bytes
	files map[string]*[]byte
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*[]byte)} }

// open returns a handle on the named file, created when missing and
// emptied when trunc is set, and its size.
func (m *memFS) open(name string, trunc bool) (memFile, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := m.files[name]
	if b == nil {
		b = new([]byte)
		m.files[name] = b
	}
	if trunc {
		*b = (*b)[:0]
	}
	return memFile{m, b}, int64(len(*b))
}

func (m *memFS) openData(name string) (dbFile, int64, error) {
	f, size := m.open(name, false)
	return f, size, nil
}

func (m *memFS) openLog(name string, trunc bool) (dbFile, error) {
	f, _ := m.open(name, trunc)
	return f, nil
}

func (m *memFS) readFile(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if b := m.files[name]; b != nil {
		return bytes.Clone(*b), nil
	}
	return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) list(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	return out, nil
}

// memFile is a handle on a memFS file. Sync and Close are no-ops: there is
// no barrier to keep when nothing outlives the process, and the bytes
// outlive every handle.
type memFile struct {
	m *memFS
	b *[]byte
}

func (f memFile) ReadAt(p []byte, off int64) (int, error) {
	f.m.mu.RLock()
	defer f.m.mu.RUnlock()
	if off >= int64(len(*f.b)) {
		return 0, io.EOF
	}
	if n := copy(p, (*f.b)[off:]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

func (f memFile) WriteAt(p []byte, off int64) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.resize(max(int64(len(*f.b)), off+int64(len(p))))
	return copy((*f.b)[off:], p), nil
}

func (f memFile) Truncate(size int64) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.resize(size)
	return nil
}

// resize sets the file's length; the bytes it grows by read as zero.
func (f memFile) resize(n int64) {
	if b := *f.b; n <= int64(len(b)) {
		*f.b = b[:n]
	} else {
		*f.b = append(b, make([]byte, n-int64(len(b)))...)
	}
}

func (memFile) Sync() error  { return nil }
func (memFile) Close() error { return nil }
