package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseArgs is the table of flag values the command accepts and
// rejects. Of the rejected ones, "-nlist 0" divided by zero, "-nprobe 0" and
// "-k 0" printed a model error and exited 0, and "-dimms 0" priced a
// platform with no DPUs.
func TestParseArgs(t *testing.T) {
	for _, args := range []string{
		"",
		"-n 1000000 -d 96 -nlist 1024 -nprobe 8 -m 12 -cb 64 -dimms 4 -sqt=false",
		"-n 1 -q 1 -d 1 -k 1 -nlist 1 -nprobe 1 -m 1 -cb 1 -dimms 1",
		"-m 7", // a model error, not a flag error: it exits 1 after parsing
	} {
		t.Run("accept/"+args, func(t *testing.T) {
			if _, err := parseArgs(strings.Fields(args), io.Discard); err != nil {
				t.Errorf("%q rejected: %v", args, err)
			}
		})
	}

	for _, c := range []struct {
		args string
		want string // the error must name this
	}{
		{"-n 0", "-n 0: must be at least 1"},
		{"-q 0", "-q 0: must be at least 1"},
		{"-d 0", "-d 0: must be at least 1"},
		{"-k 0", "-k 0: must be at least 1"},
		{"-nlist 0", "-nlist 0: must be at least 1"},
		{"-nprobe 0", "-nprobe 0: must be at least 1"},
		{"-m -2", "-m -2: must be at least 1"},
		{"-cb 0", "-cb 0: must be at least 1"},
		{"-dimms 0", "-dimms 0: must be at least 1"},
		{"-nlist x", "invalid value"},
		{"-n 5 extra", `unexpected argument "extra"`},
	} {
		t.Run("reject/"+c.args, func(t *testing.T) {
			_, err := parseArgs(strings.Fields(c.args), io.Discard)
			if err == nil {
				t.Errorf("%q accepted, want an error naming %q", c.args, c.want)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%q: error %q does not name %q", c.args, err, c.want)
			}
		})
	}
}
