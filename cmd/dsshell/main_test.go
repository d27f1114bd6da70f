package main

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/serve"
	"dataspread/internal/sheet"
)

// TestMain runs the shell itself, reading stdin, when the test binary is
// started with DSSHELL_RUN_MAIN=1: runShell drives the real main that way.
func TestMain(m *testing.M) {
	if os.Getenv("DSSHELL_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runShell feeds script to a dsshell process started with args and returns
// what it printed.
func runShell(t *testing.T, script string, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DSSHELL_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader(script)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("dsshell: %v\nstderr:\n%s", err, stderr.String())
	}
	if stderr.Len() > 0 {
		t.Fatalf("dsshell wrote to stderr:\n%s", stderr.String())
	}
	return stdout.String()
}

// startServer serves a fresh in-memory database on a loopback port until the
// test ends and returns its address.
func startServer(t *testing.T) string {
	t.Helper()
	srv := serve.New(rdbms.Open(rdbms.Options{}), core.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Listen(ln)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// shellLines splits a transcript into lines with the prompts taken off: the
// shell prints "> " before each command and no newline after it.
func shellLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		for strings.HasPrefix(l, "> ") {
			l = l[2:]
		}
		if l = strings.TrimRight(l, " "); l != "" && l != ">" {
			lines = append(lines, l)
		}
	}
	return lines
}

// Elapsed times and the server's loopback address are the only things two
// runs of one script may print differently.
var (
	elapsed  = regexp.MustCompile(` in [0-9.]+(ns|µs|ms|s) `)
	loopback = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)
)

func normalize(out string) string {
	var keep []string
	for _, l := range shellLines(out) {
		if strings.HasPrefix(l, "connected to ") {
			continue // the .connect banner
		}
		l = elapsed.ReplaceAllString(l, " in T ")
		keep = append(keep, loopback.ReplaceAllString(l, "ADDR"))
	}
	return strings.Join(keep, "\n")
}

// One command script — values, formulas, views, the four structural
// commands, refused edits, a load, a save and .stats — run on the shell's own
// database and again after .connect to a server over a fresh database prints
// the same transcript, byte for byte but for the .connect banner, the
// server's address and elapsed times: both modes are the same requests.
func TestShellTranscriptLocalMatchesConnected(t *testing.T) {
	grid := filepath.Join(t.TempDir(), "in.grid")
	if err := os.WriteFile(grid, []byte("4,1,7\n4,2,=A4*3\n5,3,hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	far := sheet.ColumnName(1 << 20)
	script := strings.Join([]string{
		"set A1 10",
		"set A2 20",
		"set B1 =A1+A2",
		"set B2 =SUM(A1:A2)*2",
		"set C1 text",
		"view A1:C3",
		"insrow 1 2",
		"view A1:C5",
		"delrow 1",
		"view A1:C4",
		"inscol 1",
		"view A1:D4",
		"delcol 1",
		"view A1:C4",
		"set " + far + "1 x",
		"set A3 =SUM(",
		"delrow 0",
		"load " + grid,
		"view A1:C6",
		"save",
		"set A1 11",
		"view A1:C6",
		".stats",
		"quit",
	}, "\n") + "\n"

	local := runShell(t, script)
	remote := runShell(t, ".connect "+startServer(t)+"\n"+script)

	want, got := normalize(local), normalize(remote)
	for _, line := range []string{
		"error: dsserver: model: RCV column capacity exceeded",
		"loaded 3 cells (committed at generation 10)",
		"saved (WAL committed)",
		"    cell cache: ",
	} {
		if !strings.Contains(want, line) {
			t.Fatalf("local transcript lacks %q:\n%s", line, local)
		}
	}
	if got != want {
		t.Fatalf("transcripts differ\nlocal:\n%s\nconnected:\n%s", local, remote)
	}
}

// Every command of the help text works in local mode, on a durable database:
// the engine-only ones (sql, link, optimize) too, which refuse while
// connected elsewhere and work again after .disconnect; the restored copy
// and the database itself reopen with what was written.
func TestShellEveryCommandLocal(t *testing.T) {
	dir := t.TempDir()
	db, backup, restored := filepath.Join(dir, "s.dsdb"), filepath.Join(dir, "s.dsb"), filepath.Join(dir, "r.dsdb")
	grid := filepath.Join(dir, "in.grid")
	if err := os.WriteFile(grid, []byte("6,1,5\n6,2,=A6+1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runShell(t, strings.Join([]string{
		"set A1 name", "set B1 qty", "set A2 bolt", "set B2 4", "set A3 nut", "set B3 9",
		"set D1 =B2+B3",
		"link A1:B3 inv",
		"sql SELECT name, qty FROM inv WHERE qty > 5",
		"optimize agg",
		"load " + grid,
		"insrow 1", "delrow 2", "inscol 2", "delcol 3",
		"view A1:D6",
		"save",
		".stats",
		".scrub",
		".vacuum",
		".backup " + backup,
		".restore " + backup + " " + restored,
		".recover",
		"view D1:D1",
		".connect " + startServer(t),
		"sql SELECT 1",
		"link A1:B2 t",
		"optimize",
		".disconnect",
		"sql SELECT 1",
		"quit",
	}, "\n")+"\n", "-db", db)
	lines := shellLines(out)
	var errs []string
	for _, l := range lines {
		if strings.HasPrefix(l, "error: ") {
			errs = append(errs, l)
		}
	}
	wantErrs := []string{
		"error: sql runs on the local engine; .disconnect first",
		"error: link runs on the local engine; .disconnect first",
		"error: optimize runs on the local engine; .disconnect first",
	}
	if strings.Join(errs, "\n") != strings.Join(wantErrs, "\n") {
		t.Fatalf("errors %q, want %q; transcript:\n%s", errs, wantErrs, out)
	}
	for _, want := range []string{
		"nut\t9",
		"decomposition: ",
		"loaded 2 cells (committed at generation ",
		"1 row(s) in ", "1 col(s) in ",
		"saved (WAL committed)",
		"    cell cache: ",
		"scrub: ", "vacuum: ", "backup: ",
		"restored " + backup + " -> " + restored,
		"recovered (server reopened its database; state is the last durable commit)",
		"     1 13",
		"disconnected (back on the local engine)",
	} {
		if !strings.Contains(strings.Join(lines, "\n"), want) {
			t.Fatalf("transcript lacks %q:\n%s", want, out)
		}
	}
	for _, path := range []string{db, restored} {
		got := runShell(t, "view A1:D6\nquit\n", "-db", path)
		if !strings.HasPrefix(got, "reopened "+path) || !strings.Contains(got, "     6 5            6 ") {
			t.Fatalf("%s reopened as:\n%s", path, got)
		}
	}
}
