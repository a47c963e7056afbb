package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseArgs is the table of flag values the command accepts and
// rejects. Of the rejected ones, "-n -5" never returned, "-n 0" wrote an
// empty corpus with "top-100" ground truth, and "-queries 0" silently wrote
// 1000 queries.
func TestParseArgs(t *testing.T) {
	for _, args := range []string{
		"",
		"-dataset DEEP -n 5000 -queries 64 -out x",
		"-dataset T2I -n 1 -queries 1 -k 0 -seed 7",
		"-dataset SPACEV -k 1",
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
		{"-n -5", "-n -5: must be at least 1"},
		{"-n 0", "-n 0: must be at least 1"},
		{"-queries 0", "-queries 0: must be at least 1"},
		{"-queries -1", "-queries -1: must be at least 1"},
		{"-k -1", "-k -1: must be at least 0"},
		{"-dataset GIST", `unknown dataset "GIST"`},
		{"-n x", "invalid value"},
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
