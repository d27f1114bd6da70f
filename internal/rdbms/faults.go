package rdbms

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
)

// Sentinel errors for the failure semantics of the durable pager. All of
// them are errors.Is-testable through every layer (engine, serve, wire).
var (
	// ErrPoisoned marks a pager that hit a durability-critical I/O failure
	// (a failed WAL append or fsync, a failed checkpoint write). The state
	// of stable storage is then undefined in the fsyncgate sense — a later
	// fsync returning success would say nothing about the pages the failed
	// one dropped — so the pager refuses every further commit until the
	// process reopens the database and recovery re-establishes a known
	// state. Reads keep working.
	ErrPoisoned = errors.New("rdbms: pager poisoned by an earlier I/O failure")
	// ErrReadOnly is reported by every mutation attempted on a poisoned
	// database. Poisoned errors unwrap to it, so a single errors.Is check
	// covers both "this write poisoned the pager" and "the pager was
	// already poisoned".
	ErrReadOnly = errors.New("rdbms: database is read-only")
	// ErrChecksum marks a page whose stored CRC does not match its
	// contents (torn write, bit rot, or a misplaced write). It is wrapped
	// by the error of the read that met the page, naming that page, and
	// surfaces through Engine.ReadErr for a cell read.
	ErrChecksum = errors.New("rdbms: page checksum mismatch")
	// ErrInjected tags every failure produced by a FaultSchedule, so tests
	// can tell injected faults from real ones.
	ErrInjected = errors.New("rdbms: injected fault")
)

// poisonedError is the sticky failure returned by every commit attempt on a
// poisoned pager. It unwraps to ErrPoisoned, ErrReadOnly and the original
// cause, so errors.Is works against all three.
type poisonedError struct{ cause error }

func (e *poisonedError) Error() string {
	return fmt.Sprintf("rdbms: pager poisoned (read-only until reopened): %v", e.cause)
}

func (e *poisonedError) Unwrap() []error {
	return []error{ErrPoisoned, ErrReadOnly, e.cause}
}

// dbFile is the file surface the pager performs I/O through. *os.File and
// memFile satisfy it; faultFile wraps either to inject scheduled faults
// underneath a real FilePager.
type dbFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FaultOp classifies the file operation a FaultRule fires on.
type FaultOp uint8

const (
	// FaultRead is a positioned read (page fetch, header read).
	FaultRead FaultOp = iota + 1
	// FaultWrite is a positioned write (WAL append, checkpoint page write).
	FaultWrite
	// FaultSync is an fsync.
	FaultSync
	// FaultTruncate is a file truncation (WAL reset).
	FaultTruncate
)

func (op FaultOp) String() string {
	switch op {
	case FaultRead:
		return "read"
	case FaultWrite:
		return "write"
	case FaultSync:
		return "sync"
	case FaultTruncate:
		return "truncate"
	}
	return fmt.Sprintf("op(%d)", op)
}

// FaultKind is the failure a triggered FaultRule injects.
type FaultKind uint8

const (
	// FaultIOErr fails the operation outright with an injected I/O error.
	// Nothing is written; reads return no data.
	FaultIOErr FaultKind = iota + 1
	// FaultENOSPC models a full disk: a write persists only a prefix of
	// its data (a torn write) and then fails with a no-space error.
	FaultENOSPC
	// FaultShortWrite persists a prefix and fails with io.ErrShortWrite —
	// the torn-write shape of a crashed or interrupted write call.
	FaultShortWrite
	// FaultBitFlip lets a read succeed but flips one seeded bit of the
	// returned data, modelling silent media corruption. Only meaningful on
	// FaultRead rules.
	FaultBitFlip
)

func (k FaultKind) String() string {
	switch k {
	case FaultIOErr:
		return "io-error"
	case FaultENOSPC:
		return "enospc"
	case FaultShortWrite:
		return "short-write"
	case FaultBitFlip:
		return "bit-flip"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// File roles a FaultRule can target.
const (
	// FaultFileData targets the data file (<path>).
	FaultFileData = "data"
	// FaultFileWAL targets the write-ahead log (<path>.wal and rotated
	// segments).
	FaultFileWAL = "wal"
)

// FaultRule schedules one fault: the After'th matching operation (1 = the
// very next one) fails with Kind, and so do the Count operations after it
// (Count < 0: every later match fails too — e.g. a disk that stays full).
type FaultRule struct {
	// File is FaultFileData, FaultFileWAL, or "" for either file.
	File string
	// Op is the operation class the rule matches.
	Op FaultOp
	// Kind is the injected failure.
	Kind FaultKind
	// After triggers the rule on the N'th matching operation; values < 1
	// mean the first.
	After int
	// Count extends the rule over this many further matches after the
	// first firing; negative means forever.
	Count int
}

// FaultCounts reports how many faults of each kind a schedule has injected.
type FaultCounts struct {
	IOErrs      int64
	NoSpace     int64
	ShortWrites int64
	BitFlips    int64
}

// Total sums the injected-fault counters.
func (c FaultCounts) Total() int64 {
	return c.IOErrs + c.NoSpace + c.ShortWrites + c.BitFlips
}

// FaultRuleStat is the per-rule breakdown of a schedule: the rule itself
// plus how many operations it matched and how many faults it injected.
// Surfaced over the serve Stats op so operators can see which scheduled
// failure a degraded server actually hit.
type FaultRuleStat struct {
	Rule     FaultRule
	Matched  int64
	Injected int64
}

// FaultSchedule is a deterministic, seeded fault plan shared by the data
// and WAL files of one FilePager. It counts every matching operation per
// rule and injects the configured failure when a rule triggers; with no
// rules it is a pure operation counter (useful for calibrating After
// offsets in tests). Safe for concurrent use.
type FaultSchedule struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []faultRuleState
	seen  map[faultKey]int64
	hits  FaultCounts
}

type faultKey struct {
	file string
	op   FaultOp
}

type faultRuleState struct {
	FaultRule
	matched int // matching operations observed so far
	fired   int // times the rule has injected (after the first firing)
}

// NewFaultSchedule builds a schedule; seed drives the bit positions flipped
// by FaultBitFlip rules (and nothing else — rule triggering is a pure
// deterministic count).
func NewFaultSchedule(seed int64, rules ...FaultRule) *FaultSchedule {
	fs := &FaultSchedule{
		rng:  rand.New(rand.NewSource(seed)),
		seen: make(map[faultKey]int64),
	}
	for _, r := range rules {
		if r.After < 1 {
			r.After = 1
		}
		fs.rules = append(fs.rules, faultRuleState{FaultRule: r})
	}
	return fs
}

// Seen returns how many operations of the class have passed through the
// schedule (injected or not) for the given file role.
func (fs *FaultSchedule) Seen(file string, op FaultOp) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.seen[faultKey{file, op}]
}

// Injected returns the per-kind injected-fault counters.
func (fs *FaultSchedule) Injected() FaultCounts {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.hits
}

// RuleStats returns the per-rule breakdown, in rule order.
func (fs *FaultSchedule) RuleStats() []FaultRuleStat {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]FaultRuleStat, len(fs.rules))
	for i := range fs.rules {
		r := &fs.rules[i]
		out[i] = FaultRuleStat{Rule: r.FaultRule, Matched: int64(r.matched)}
		if r.matched >= r.After {
			out[i].Injected = int64(r.fired)
		}
	}
	return out
}

// Arm appends rules to a live schedule. A rule's matched count starts at
// zero when armed, so After means "the N'th matching operation from now" —
// which is what the soak harness uses to drop a fault deterministically
// inside a maintenance pass it is about to start.
func (fs *FaultSchedule) Arm(rules ...FaultRule) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, r := range rules {
		if r.After < 1 {
			r.After = 1
		}
		fs.rules = append(fs.rules, faultRuleState{FaultRule: r})
	}
}

// fire records one operation and reports whether a rule injects a fault on
// it (first triggering rule wins).
func (fs *FaultSchedule) fire(file string, op FaultOp) (FaultKind, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.seen[faultKey{file, op}]++
	for i := range fs.rules {
		r := &fs.rules[i]
		if r.Op != op || (r.File != "" && r.File != file) {
			continue
		}
		r.matched++
		if r.matched < r.After {
			continue
		}
		if r.matched > r.After {
			if r.Count >= 0 && r.fired > r.Count {
				continue
			}
			r.fired++
		} else {
			r.fired = 1
		}
		switch r.Kind {
		case FaultIOErr:
			fs.hits.IOErrs++
		case FaultENOSPC:
			fs.hits.NoSpace++
		case FaultShortWrite:
			fs.hits.ShortWrites++
		case FaultBitFlip:
			fs.hits.BitFlips++
		}
		return r.Kind, true
	}
	return 0, false
}

// flipPos picks the seeded bit to corrupt in an n-byte read.
func (fs *FaultSchedule) flipPos(n int) (idx int, mask byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.rng.Intn(n), 1 << uint(fs.rng.Intn(8))
}

// wrapFaultFile interposes the schedule between the pager and a file; a nil
// schedule returns the file unwrapped (zero overhead in production opens).
func wrapFaultFile(f dbFile, role string, fs *FaultSchedule) dbFile {
	if fs == nil {
		return f
	}
	return &faultFile{f: f, role: role, fs: fs}
}

// faultFile injects the schedule's faults around a real file. Failed writes
// persist a prefix (a genuinely torn write) so recovery code faces the same
// on-disk state a real ENOSPC or interrupted write leaves behind.
type faultFile struct {
	f    dbFile
	role string
	fs   *FaultSchedule
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	kind, hit := f.fs.fire(f.role, FaultRead)
	if !hit {
		return f.f.ReadAt(p, off)
	}
	if kind == FaultBitFlip {
		n, err := f.f.ReadAt(p, off)
		if err == nil && n > 0 {
			idx, mask := f.fs.flipPos(n)
			p[idx] ^= mask
		}
		return n, err
	}
	return 0, fmt.Errorf("%s read at %d failed: %w", f.role, off, ErrInjected)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	kind, hit := f.fs.fire(f.role, FaultWrite)
	if !hit {
		return f.f.WriteAt(p, off)
	}
	switch kind {
	case FaultENOSPC, FaultShortWrite:
		// Tear the write in the middle: the prefix really reaches the
		// file, the rest is lost.
		n := len(p) / 2
		if n > 0 {
			if wn, err := f.f.WriteAt(p[:n], off); err != nil {
				return wn, err
			}
		}
		if kind == FaultENOSPC {
			return n, fmt.Errorf("%s write at %d: no space left on device: %w", f.role, off, ErrInjected)
		}
		return n, fmt.Errorf("%s write at %d: %w: %w", f.role, off, io.ErrShortWrite, ErrInjected)
	default:
		return 0, fmt.Errorf("%s write at %d failed: %w", f.role, off, ErrInjected)
	}
}

func (f *faultFile) Sync() error {
	if _, hit := f.fs.fire(f.role, FaultSync); hit {
		return fmt.Errorf("%s fsync failed: %w", f.role, ErrInjected)
	}
	return f.f.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if _, hit := f.fs.fire(f.role, FaultTruncate); hit {
		return fmt.Errorf("%s truncate to %d failed: %w", f.role, size, ErrInjected)
	}
	return f.f.Truncate(size)
}

func (f *faultFile) Close() error { return f.f.Close() }
