package main

import (
	"errors"
	"flag"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mqsched/internal/metrics"
	"mqsched/internal/netproto"
)

// TestMain lets the test binary stand in for mqload: re-executed with
// MQLOAD_MAIN set, it runs main on its arguments, exit status included.
func TestMain(m *testing.M) {
	if os.Getenv("MQLOAD_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// answers passes the runner's METRICS probe and answers every query with
// queryErr ("" = success).
type answers struct{ queryErr string }

func (a answers) Answer(req *netproto.Request, _ netproto.ConnInfo) *netproto.Response {
	if req.Verb == netproto.VerbMetrics {
		snap := metrics.NewRegistry().Snapshot()
		return &netproto.Response{MetricsSnap: &snap}
	}
	return &netproto.Response{Err: a.queryErr}
}

// TestExitStatusFollowsQueries: a run against a server that fails every
// query exits 1 under either pacing — it used to print the error count and
// exit 0 — and a run whose queries are all answered exits 0.
func TestExitStatusFollowsQueries(t *testing.T) {
	for _, tc := range []struct {
		name     string
		queryErr string
		args     []string
		want     int
	}{
		{"closed loop, failing", "no such slide", []string{"-clients", "2", "-queries", "2"}, 1},
		{"rate sweep, failing", "no such slide", []string{"-rates", "40", "-duration", "200ms", "-warmup", "0s", "-users", "4"}, 1},
		{"closed loop, healthy", "", []string{"-clients", "2", "-queries", "2"}, 0},
	} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go netproto.ServeHandler(l, answers{tc.queryErr}, func(string, ...any) {})

		cmd := exec.Command(os.Args[0], append([]string{"-addr", l.Addr().String(), "-slides", "s:4096x4096"}, tc.args...)...)
		cmd.Env = append(os.Environ(), "MQLOAD_MAIN=1")
		out, err := cmd.CombinedOutput()
		got := 0
		if exit := (*exec.ExitError)(nil); errors.As(err, &exit) {
			got = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: exit status %d, want %d; output:\n%s", tc.name, got, tc.want, out)
		}
	}
}

// TestAddrList pins the -addr flag contract: repeats accumulate, commas
// split, blanks and duplicates are rejected (the flag package turns a Set
// error into usage + exit 2).
func TestAddrList(t *testing.T) {
	var a addrList
	for _, v := range []string{"h1:9123", "h2:9123,h3:9123"} {
		if err := a.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	if len(a) != 3 || a[0] != "h1:9123" || a[2] != "h3:9123" {
		t.Fatalf("addrs = %v", a)
	}
	for _, bad := range []string{"", " ", "h4:9123,,h5:9123", "h1:9123"} {
		var fresh addrList
		fresh.Set("h1:9123")
		if err := fresh.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

// TestAddrFlagUsageError confirms the wiring: parsing a bad -addr through a
// flag set fails (main's real FlagSet uses ExitOnError, making this exit 2).
func TestAddrFlagUsageError(t *testing.T) {
	var a addrList
	fs := flag.NewFlagSet("mqload", flag.ContinueOnError)
	fs.SetOutput(discard{})
	fs.Var(&a, "addr", "")
	if err := fs.Parse([]string{"-addr", "h1:9123,"}); err == nil {
		t.Fatal("trailing comma should be a usage error")
	}
	a = nil // the failed parse already consumed the pre-comma entry
	if err := fs.Parse([]string{"-addr", "h1:9123", "-addr", "h2:9123"}); err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 {
		t.Fatalf("addrs = %v", a)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestClosedLoopFlags pins the contract of -clients/-queries/-think: bad
// values are usage errors, the open-loop flags cannot ride along with
// -clients when given explicitly (their defaults can), and -queries/-think
// mean nothing without -clients.
func TestClosedLoopFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" means valid
	}{
		{nil, ""},
		{[]string{"-rates", "10,20"}, ""},
		{[]string{"-clients", "8", "-queries", "16", "-think", "5ms"}, ""},
		{[]string{"-clients", "8", "-seed", "3", "-outside", "256"}, ""},
		{[]string{"-clients", "-1"}, "-clients -1"},
		{[]string{"-clients", "8", "-queries", "0"}, "-queries 0"},
		{[]string{"-clients", "8", "-queries", "-4"}, "-queries -4"},
		{[]string{"-clients", "8", "-think", "-1s"}, "-think -1s"},
		{[]string{"-clients", "8", "-rates", "25,50,100"}, "-rates belongs to the open-loop sweep"},
		{[]string{"-clients", "8", "-users", "10"}, "-users belongs to the open-loop sweep"},
		{[]string{"-queries", "4"}, "-queries needs -clients"},
		{[]string{"-think", "1s"}, "-think needs -clients"},
	} {
		fs := flag.NewFlagSet("mqload", flag.ContinueOnError)
		fs.SetOutput(discard{})
		clients := fs.Int("clients", 0, "")
		queries := fs.Int("queries", 16, "")
		think := fs.Duration("think", 0, "")
		// Stand-ins for main's other flags the cases mention.
		fs.String("rates", "25,50,100", "")
		fs.Int("users", 1000, "")
		fs.Int64("seed", 1, "")
		fs.Int64("outside", 512, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := closedLoopUsage(fs, *clients, *queries, *think)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}
