// Command drim-model evaluates DRIM-ANN's analytic performance model
// (paper §4, Equations 1-13) for a given index configuration and hardware:
// per-phase compute/IO costs, compute-to-IO ratios, the suggested host/PIM
// phase placement, and predicted QPS on the modeled platforms.
//
// Usage:
//
//	drim-model -n 100000000 -d 128 -nlist 16384 -nprobe 96 -m 16 -cb 256
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"drimann/internal/perfmodel"
	"drimann/internal/upmem"
)

type config struct {
	n                             int64
	q, d, k, nlist, nprobe, m, cb int
	dimms                         int
	sqt                           bool
}

// parseArgs reads the command line; a count below 1 is an error naming its
// flag.
func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("drim-model", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&c.n, "n", 100_000_000, "total vectors")
	fs.IntVar(&c.q, "q", 10000, "queries per batch")
	fs.IntVar(&c.d, "d", 128, "dimension")
	fs.IntVar(&c.k, "k", 10, "neighbors per query")
	fs.IntVar(&c.nlist, "nlist", 1<<14, "coarse clusters")
	fs.IntVar(&c.nprobe, "nprobe", 96, "probed clusters per query")
	fs.IntVar(&c.m, "m", 16, "PQ subvectors")
	fs.IntVar(&c.cb, "cb", 256, "codebook entries")
	fs.IntVar(&c.dimms, "dimms", 32, "UPMEM DIMMs (80 DPUs each)")
	fs.BoolVar(&c.sqt, "sqt", true, "multiplier-less (SQT) LC kernel on the PIM")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.n < 1 {
		return config{}, fmt.Errorf("-n %d: must be at least 1", c.n)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"q", c.q}, {"d", c.d}, {"k", c.k}, {"nlist", c.nlist}, {"nprobe", c.nprobe},
		{"m", c.m}, {"cb", c.cb}, {"dimms", c.dimms},
	} {
		if f.v < 1 {
			return config{}, fmt.Errorf("-%s %d: must be at least 1", f.name, f.v)
		}
	}
	return c, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drim-model: %v\n", err)
		os.Exit(2)
	}

	c := int(cfg.n) / cfg.nlist
	if c < 1 {
		c = 1
	}
	p := perfmodel.Params{
		N: cfg.n, Q: cfg.q, D: cfg.d, K: cfg.k, P: cfg.nprobe, C: c, M: cfg.m, CB: cfg.cb,
	}
	mulCost := 32.0
	if cfg.sqt {
		mulCost = 2.0
	}
	costs, err := perfmodel.Costs(p, mulCost)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drim-model:", err)
		os.Exit(1)
	}

	fmt.Printf("configuration: N=%d Q=%d D=%d K=%d nprobe=%d nlist=%d (C=%d) M=%d CB=%d sqt=%v\n\n",
		cfg.n, cfg.q, cfg.d, cfg.k, cfg.nprobe, cfg.nlist, c, cfg.m, cfg.cb, cfg.sqt)
	fmt.Printf("%-6s  %14s  %14s  %10s\n", "phase", "compute (ops)", "IO (bytes)", "C2IO")
	var totOps, totIO float64
	for ph := upmem.Phase(0); ph < upmem.NumPhases; ph++ {
		pc := costs[ph]
		if pc.Compute == 0 && pc.IO == 0 {
			continue
		}
		fmt.Printf("%-6s  %14.3e  %14.3e  %10.4f\n", ph, pc.Compute, pc.IO, pc.C2IO())
		totOps += pc.Compute
		totIO += pc.IO
	}
	fmt.Printf("%-6s  %14.3e  %14.3e  %10.4f  (arithmetic intensity)\n\n",
		"total", totOps, totIO, perfmodel.ArithmeticIntensity(costs))

	host := perfmodel.FromPlatform(upmem.PlatformCPU())
	pim := perfmodel.FromPlatform(upmem.PlatformUPMEM(cfg.dimms))
	asg := perfmodel.SuggestAssignment(costs, host, pim)
	fmt.Print("suggested placement (paper §4 C2IO rule): host = {")
	first := true
	for ph := upmem.Phase(0); ph < upmem.NumPhases; ph++ {
		if asg.HostPhases[ph] {
			if !first {
				fmt.Print(", ")
			}
			fmt.Print(ph)
			first = false
		}
	}
	fmt.Println("}, remainder on PIM")

	batch := perfmodel.BatchTime(costs, host, pim, asg)
	fmt.Printf("predicted batch time on UPMEM x%d DIMMs: %.3f ms -> %.0f QPS\n",
		cfg.dimms, batch*1e3, perfmodel.QPS(p, batch))

	for _, plt := range []upmem.Platform{
		upmem.PlatformCPU(), upmem.PlatformGPU(),
		upmem.PlatformHBMPIM(), upmem.PlatformAiM(),
	} {
		hw := perfmodel.FromPlatform(plt)
		t := perfmodel.BatchTime(costs, hw, hw, perfmodel.Assignment{})
		note := ""
		if !plt.Fits(perfmodel.DatasetBytes(p)) {
			note = "  [dataset exceeds memory: OOM]"
		}
		fmt.Printf("  %-34s ideal %.0f QPS%s\n", plt.Name, perfmodel.QPS(p, t), note)
	}
}
