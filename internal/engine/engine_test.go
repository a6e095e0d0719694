package engine

import (
	"flag"
	"strings"
	"testing"
)

func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		want string
	}{
		{"shortexp without pool", Options{ShortExp: 400}, "requires -pool"},
		{"negative chunk", Options{ChunkRows: -1}, "negative"},
		{"negative tablecache", Options{TableCacheMB: -1}, "negative"},
		{"negative pool", Options{Pool: -1}, "negative"},
		{"negative shortexp", Options{Pool: 8, ShortExp: -1}, "negative"},
	} {
		err := tc.o.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	for _, o := range []Options{
		{},
		{Packed: true, Pool: 256, ShortExp: 400, TableCacheMB: 128},
		{Stream: true, ChunkRows: 16, Pool: 4, NoFixedBase: true, SecretOps: true, SpotCheck: true, ANCheck: true},
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", o, err)
		}
	}
}

func TestRegisterFlagsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want Options
	}{
		{nil, Options{}},
		{[]string{"-packed", "-stream", "-chunk", "16", "-textbook", "-tablecache", "128", "-pool", "256",
			"-shortexp", "400", "-secretops", "-spotcheck", "-ancheck"},
			Options{Packed: true, Stream: true, ChunkRows: 16, Textbook: true, TableCacheMB: 128, Pool: 256,
				ShortExp: 400, SecretOps: true, SpotCheck: true, ANCheck: true}},
		{[]string{"-fixedbase=false"}, Options{NoFixedBase: true}},
		{[]string{"-fixedbase=false", "-fixedbase"}, Options{}},
	} {
		var o Options
		fs := flag.NewFlagSet("engine", flag.ContinueOnError)
		o.RegisterFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("Parse(%q): %v", tc.args, err)
		}
		if o != tc.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.args, o, tc.want)
		}
	}
}

// TestRegisterFlagsDefaults: flag defaults are the receiver's current
// values, with -fixedbase shown in its positive sense.
func TestRegisterFlagsDefaults(t *testing.T) {
	for _, tc := range []struct {
		o         Options
		fixedbase string
	}{{Options{}, "true"}, {Options{NoFixedBase: true}, "false"}} {
		o := tc.o
		fs := flag.NewFlagSet("engine", flag.ContinueOnError)
		o.RegisterFlags(fs)
		if got := fs.Lookup("fixedbase").DefValue; got != tc.fixedbase {
			t.Errorf("NoFixedBase=%v: -fixedbase default %q, want %q", tc.o.NoFixedBase, got, tc.fixedbase)
		}
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if o != tc.o {
			t.Errorf("empty parse changed %+v to %+v", tc.o, o)
		}
	}
}

// TestFingerprintGolden pins the fingerprints run checkpoints embed. A new,
// renamed or reordered Options field changes them, and every checkpoint
// written before the change stops resuming; update the values here only
// with that in mind.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		want uint64
	}{
		{"zero", Options{}, 0xec8bf8efc7a8f9f3},
		{"benchmark contract", Options{Packed: true, Pool: 256, ShortExp: 400, TableCacheMB: 128}, 0x74fe5d894849ac9a},
	} {
		if got := tc.o.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %#x, want %#x", tc.name, got, tc.want)
		}
	}
	if (Options{}).Fingerprint() == (Options{Packed: true}).Fingerprint() {
		t.Error("Packed does not change the fingerprint")
	}
}
