package mqsched

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"mqsched/internal/disk"
)

// bind registers base's flags on a fresh set and parses args.
func bind(t *testing.T, base Config, args ...string) (Config, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := base
	cfg.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return cfg, fs
}

// changed lists the Config fields that differ between a and b.
func changed(a, b Config) []string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// The two binaries' base configurations, as their mains fill them in.
var (
	serverBase = Config{Mode: Real, TimeScale: 0.002, TraceCapacity: 16384}
	benchBase  = Config{Mode: Simulated, Policy: "cnbf", TraceCapacity: 1 << 16}
)

func TestBindFlagsOneFieldPerFlag(t *testing.T) {
	cases := []struct {
		flag, value, field string
		want               any
		modes              []Mode // nil: offered on both substrates
	}{
		{"policy", "sjf", "Policy", "sjf", nil},
		{"batch-starvation", "0.5", "BatchStarvation", 0.5, nil},
		{"batch-group", "3", "BatchMaxGroup", 3, nil},
		{"threads", "7", "Threads", 7, nil},
		{"cpus", "12", "CPUs", 12, []Mode{Simulated}},
		{"disks", "9", "Disks", 9, nil},
		{"io-sched", "elevator", "IOSched", disk.SchedElevator, nil},
		{"ds", "128", "DSBudget", int64(128 << 20), nil},
		{"ds", "-1", "DSBudget", int64(-1), nil},
		{"ds-policy", "cost", "DSPolicy", "cost", nil},
		{"ps", "16", "PSBudget", int64(16 << 20), nil},
		{"timescale", "0.5", "TimeScale", 0.5, []Mode{Real}},
		{"trace-buffer", "99", "TraceCapacity", 99, nil},
		{"slowlog", "250ms", "SlowQueryThreshold", 250 * time.Millisecond, nil},
		{"slowlog-pct", "99", "SlowQueryPercentile", 99.0, nil},
		{"compute-workers", "2", "ComputeParallelism", 2, nil},
	}
	covered := map[string]bool{}
	for _, base := range []Config{serverBase, benchBase} {
		unset, fs := bind(t, base)
		// No flag given: every field holds the binary's default, which is
		// the base with the library defaults resolved.
		if diff := changed(unset, base.withDefaults()); len(diff) != 0 {
			t.Errorf("mode %d: binding alone moved %v", base.Mode, diff)
		}
		for _, c := range cases {
			offered := c.modes == nil || c.modes[0] == base.Mode
			if got := fs.Lookup(c.flag) != nil; got != offered {
				t.Errorf("mode %d: -%s offered = %v, want %v", base.Mode, c.flag, got, offered)
			}
			if !offered {
				continue
			}
			covered[c.flag] = true
			set, _ := bind(t, base, "-"+c.flag, c.value)
			if diff := changed(unset, set); len(diff) != 1 || diff[0] != c.field {
				t.Errorf("mode %d: -%s %s changed %v, want exactly %s", base.Mode, c.flag, c.value, diff, c.field)
			}
			if got := reflect.ValueOf(set).FieldByName(c.field).Interface(); !reflect.DeepEqual(got, c.want) {
				t.Errorf("mode %d: -%s %s set %s = %v, want %v", base.Mode, c.flag, c.value, c.field, got, c.want)
			}
		}
		// Every flag the binder registers is in the table above.
		fs.VisitAll(func(f *flag.Flag) {
			if !covered[f.Name] {
				t.Errorf("mode %d: -%s is bound but not covered by this test", base.Mode, f.Name)
			}
		})
	}
}

func TestBindFlagsBinaryDefaults(t *testing.T) {
	server, _ := bind(t, serverBase)
	if server.Policy != "cf" || server.TimeScale != 0.002 || server.Threads != 4 ||
		server.DSBudget != 64<<20 || server.PSBudget != 32<<20 || server.TraceCapacity != 16384 {
		t.Errorf("mqserver defaults: %+v", server)
	}
	bench, _ := bind(t, benchBase)
	if bench.Policy != "cnbf" || bench.Threads != 4 || bench.CPUs != 24 || bench.Disks != 4 {
		t.Errorf("mqbench defaults: %+v", bench)
	}
	for _, bad := range [][]string{{"-io-sched", "scan"}, {"-ds", "lots"}, {"-ps", ""}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg := serverBase
		cfg.BindFlags(fs)
		if err := fs.Parse(bad); err == nil {
			t.Errorf("%v parsed", bad)
		}
	}
}
