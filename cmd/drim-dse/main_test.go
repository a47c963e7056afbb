package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseArgs is the table of flag values the command accepts and
// rejects. The rejected ones marked "panicked" crashed the search before
// the flags were checked; the one marked "ran" searched for a floor no
// configuration can meet.
func TestParseArgs(t *testing.T) {
	for _, args := range []string{
		"",
		"-dataset DEEP -n 5000 -queries 64",
		"-dataset T2I -n 256 -k 1 -queries 1 -dpus 1 -accuracy 1 -seed 7",
		"-accuracy 0.01",
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
		{"-n 200", "-n 200: the smallest nlist"}, // panicked
		{"-n 255", "-n 255: the smallest nlist"},
		{"-n -1", "-n -1: the smallest nlist"},
		{"-k 0", "-k, -queries and -dpus"}, // panicked
		{"-queries 0", "-k, -queries and -dpus"},
		{"-dpus -3", "-k, -queries and -dpus"},
		{"-accuracy 1.5", "-accuracy 1.5: a recall floor"}, // ran
		{"-accuracy 0", "-accuracy 0: a recall floor"},
		{"-accuracy -0.2", "-accuracy -0.2: a recall floor"},
		{"-accuracy NaN", "-accuracy NaN: a recall floor"},
		{"-dataset GIST", `unknown dataset "GIST"`},
		{"-budget 12", "flag provided but not defined"},
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
