package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseArgs is the table of flag values the command accepts and
// rejects. Of the rejected ones, "-k 0" served every query and then
// panicked in the ground truth, "-dpus 0" printed 0 DPUs for an engine that
// ran its default 64, and "-clients 0" silently ran one client.
func TestParseArgs(t *testing.T) {
	for _, args := range []string{
		"",
		"-dataset DEEP -n 5000 -queries 64",
		"-dataset T2I -n 256 -nlist 1 -m 1 -cb 1 -nprobe 1 -k 1 -queries 1 -dpus 1 -clients 1 -seed 7",
		"-base corpus.bvecs -query queries.bvecs -dataset GIST",
		"-maxwait 1ms -maxbatch 0 -recall=false",
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
		{"-k 0", "-k 0: must be at least 1"},
		{"-k -1", "-k -1: must be at least 1"},
		{"-nlist 0", "-nlist 0: must be at least 1"},
		{"-m 0", "-m 0: must be at least 1"},
		{"-cb 0", "-cb 0: must be at least 1"},
		{"-nprobe 0", "-nprobe 0: must be at least 1"},
		{"-dpus 0", "-dpus 0: must be at least 1"},
		{"-clients 0", "-clients 0: must be at least 1"},
		{"-queries 0", "-queries 0: must be at least 1"},
		{"-dataset GIST", `unknown dataset "GIST"`},
		{"-base corpus.bvecs", "-query is required with -base"},
		{"-variant opq", "flag provided but not defined"},
		{"-n 5000 extra", `unexpected argument "extra"`},
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
