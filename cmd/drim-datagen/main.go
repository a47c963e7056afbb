// Command drim-datagen writes synthetic DRIM-ANN corpora to disk in the
// standard TEXMEX formats: .bvecs (base and query vectors) and .ivecs
// (exact ground truth), so external tools can consume them.
//
// Usage:
//
//	drim-datagen -dataset SIFT -n 100000 -queries 1000 -out ./data/sift
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"drimann"
	"drimann/internal/dataset"
)

var datasets = map[string]func(n, queries int, seed int64) *drimann.Synth{
	"SIFT": drimann.SIFT, "DEEP": drimann.DEEP, "SPACEV": drimann.SPACEV, "T2I": drimann.T2I,
}

type config struct {
	dataset       string
	n, queries, k int
	out           string
	seed          int64
}

// parseArgs reads the command line: -n and -queries must be at least 1, -k
// at least 0 (0 skips the ground truth).
func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("drim-datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.dataset, "dataset", "SIFT", "dataset shape: SIFT, DEEP, SPACEV, T2I")
	fs.IntVar(&c.n, "n", 100000, "base vectors")
	fs.IntVar(&c.queries, "queries", 1000, "query vectors")
	fs.IntVar(&c.k, "k", 100, "ground-truth neighbors per query (0 to skip)")
	fs.StringVar(&c.out, "out", "data", "output path prefix")
	fs.Int64Var(&c.seed, "seed", 1, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	switch {
	case fs.NArg() > 0:
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case c.n < 1:
		return config{}, fmt.Errorf("-n %d: must be at least 1", c.n)
	case c.queries < 1:
		return config{}, fmt.Errorf("-queries %d: must be at least 1", c.queries)
	case c.k < 0:
		return config{}, fmt.Errorf("-k %d: must be at least 0", c.k)
	case datasets[c.dataset] == nil:
		return config{}, fmt.Errorf("unknown dataset %q", c.dataset)
	}
	return c, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("drim-datagen: ")
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drim-datagen: %v\n", err)
		os.Exit(2)
	}
	s := datasets[cfg.dataset](cfg.n, cfg.queries, cfg.seed)

	baseFile := cfg.out + "_base.bvecs"
	if err := dataset.SaveBvecsFile(baseFile, s.Base); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d x %d)\n", baseFile, s.Base.N, s.Base.D)

	queryFile := cfg.out + "_query.bvecs"
	if err := dataset.SaveBvecsFile(queryFile, s.Queries); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d x %d)\n", queryFile, s.Queries.N, s.Queries.D)

	if cfg.k > 0 {
		gt := dataset.GroundTruth(s.Base, s.Queries, cfg.k, 0)
		gtFile := cfg.out + "_groundtruth.ivecs"
		f, err := os.Create(gtFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := dataset.WriteIvecs(f, gt); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (top-%d exact neighbors)\n", gtFile, cfg.k)
	}
}
