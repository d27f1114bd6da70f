package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestMainOutput runs the example and compares its stdout with
// testdata/stdout.golden. GOLDEN_REGEN=1 rewrites the file.
func TestMainOutput(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	main()
	os.Stdout = stdout
	w.Close()
	got := <-out
	const golden = "testdata/stdout.golden"
	if os.Getenv("GOLDEN_REGEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout differs from %s:\n%s", golden, got)
	}
}
