package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunRejectsBadInvocations: every bad flag, argument or path makes
// run return an error before the daemon serves, leaving the requested
// address free.
func TestRunRejectsBadInvocations(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-no-such-flag"}},
		{"positional argument", []string{"extra"}},
		{"cache dir is a file", []string{"-cache-dir", file}},
		{"log is a directory", []string{"-log", dir}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			var out strings.Builder
			if err := run(append([]string{"-addr", addr}, tc.args...), &out); err == nil {
				t.Fatalf("run(%q) succeeded", tc.args)
			}
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("run(%q) left %s in use: %v", tc.args, addr, err)
			}
			ln.Close()
		})
	}
	t.Run("unparseable addr", func(t *testing.T) {
		var out strings.Builder
		if err := run([]string{"-addr", "no-port-here"}, &out); err == nil {
			t.Fatal("run with an unparseable -addr succeeded")
		}
		if strings.Contains(out.String(), "listening") {
			t.Errorf("announced a listener: %q", out.String())
		}
	})
}
