package core

import (
	"fmt"

	"drimann/internal/dataset"
	"drimann/internal/ivf"
	"drimann/internal/layout"
	"drimann/internal/upmem"
)

// deploy is New with the sample the share table is measured on (cal; none:
// the flat table) named apart from the heat profile.
func deploy(ix *ivf.Index, profile, cal dataset.U8Set, opts Options) (*Engine, error) {
	opts.defaults()
	cfg := upmem.DefaultConfig(opts.NumDPUs)
	if opts.WRAMBytes > 0 {
		cfg.WRAMBytes = opts.WRAMBytes
	}
	if opts.MRAMBytes > 0 {
		cfg.MRAMBytes = opts.MRAMBytes
	}
	sys, err := upmem.NewSystem(cfg)
	if err != nil {
		return nil, err
	}

	if ix.HasMutations() {
		return nil, fmt.Errorf("core: index has uncompacted mutations; Compact it before deploying")
	}
	loc := NewLocator(ix, opts)
	e := &Engine{ix: ix, sys: sys, opts: opts, codeBytes: codeBytesFor(ix.CB, ix.M), loc: loc}

	// Offline heat profile: probe frequency over the profile workload.
	sizes := make([]int, ix.NList)
	for c := range sizes {
		sizes[c] = ix.ListLen(c)
	}
	freq := make([]float64, ix.NList)
	if profile.N > 0 {
		// The engine's own locator: the probes live queries will hit, located
		// across workers.
		for _, c := range loc.Probes(profile).Clusters {
			freq[c]++
		}
	} else {
		for c, s := range sizes {
			freq[c] = float64(s)
		}
	}

	// Reserve per-DPU MRAM for index-wide data before the layout divides the
	// remainder: integer codebooks plus the full centroid table (for
	// simplicity every DPU keeps all centroids, as the directory is small).
	fixed := fixedMRAM(ix)
	dataBudget := cfg.MRAMBytes - fixed - opts.CopyFootprint
	if dataBudget <= 0 {
		return nil, fmt.Errorf("core: MRAM too small: %d fixed bytes vs %d bank", fixed, cfg.MRAMBytes)
	}

	lcfg := layout.Config{
		NumDPUs:        opts.NumDPUs,
		BytesPerPoint:  e.codeBytes + 4,
		MRAMDataBudget: dataBudget,
		CopyFootprint:  opts.CopyFootprint,
		WRAMMetaBudget: cfg.WRAMBytes / 4,
		HeatWeight:     0.5,
		SplitThreshold: opts.SplitThreshold,
		EnableSplit:    opts.EnableSplit,
		EnableDup:      opts.EnableDup,
		EnableBalance:  opts.EnableBalance,
	}
	e.freq, e.lcfg = freq, lcfg
	pl, err := e.optimize(sizes)
	if err != nil {
		return nil, fmt.Errorf("core: layout: %w", err)
	}
	if err := pl.Validate(sizes); err != nil {
		return nil, fmt.Errorf("core: layout invariants: %w", err)
	}
	e.pl = pl

	if err := e.accountMemory(); err != nil {
		return nil, err
	}

	// Host-side execution state: the decomposed LUT builder, and the per-DPU
	// kernel scratch reused across launches.
	e.lut = ix.NewLUTBuilder(opts.Workers)
	e.lc = &lcDemand{cal: cal}
	e.scratch = make([]dpuScratch, opts.NumDPUs)
	e.rebuildDemand()
	return e, nil
}

func codeBytesFor(cb, m int) int {
	if cb <= 256 {
		return m
	}
	return 2 * m
}

// fixedMRAM is the index-wide data every DPU holds: the integer codebooks and
// the full centroid table.
func fixedMRAM(ix *ivf.Index) int { return ix.M*ix.CB*(ix.Dim/ix.M)*2 + ix.NList*ix.Dim }

// PointCapacity is how many points of ix's lists an engine deployed with opts
// has MRAM for — per DPU, the bank less the index-wide data and the copy
// footprint, over the bytes a point takes. A sharded deployment keeps every
// shard's share under it (cluster.New).
func PointCapacity(ix *ivf.Index, opts Options) int {
	opts.defaults()
	if opts.MRAMBytes <= 0 {
		opts.MRAMBytes = upmem.DefaultConfig(1).MRAMBytes
	}
	return opts.NumDPUs * max(opts.MRAMBytes-fixedMRAM(ix)-opts.CopyFootprint, 0) / (codeBytesFor(ix.CB, ix.M) + 4)
}

// accountMemory reserves the engine's per-DPU MRAM (index-wide fixed data
// plus every placed slice) and WRAM (staging, SQT, metadata, and the LUT
// when it fits), recording metaPerDPU and lutInWRAM. New and NewReplica both
// run it — each against its own fresh upmem.System, since the simulated
// hardware is per replica even where the host-side data is shared.
func (e *Engine) accountMemory() error {
	ix, sys, opts := e.ix, e.sys, e.opts
	fixed := fixedMRAM(ix)

	// Account MRAM per DPU.
	e.metaPerDPU = make([]int, opts.NumDPUs)
	for _, d := range sys.DPUs {
		if err := d.AllocMRAM(fixed); err != nil {
			return fmt.Errorf("core: fixed MRAM: %w", err)
		}
	}
	for _, s := range e.pl.Slices {
		bytes := s.Count * (e.codeBytes + 4)
		for _, d := range s.DPUs {
			if err := sys.DPUs[d].AllocMRAM(bytes); err != nil {
				return fmt.Errorf("core: slice data: %w", err)
			}
			e.metaPerDPU[d]++
		}
	}

	// Account WRAM per DPU: staging buffers and the LC mark bitmaps (CB bits
	// per subspace, in 32-bit words) are always needed; with the buffer
	// optimization also the SQT, slice metadata, and (if it fits) the
	// distance LUT.
	e.lutBytes = ix.M * ix.CB * 4
	stagingBytes := 4096 + ix.M*e.markWords32()*4
	const sqtBytes = 511 * 4
	e.lutInWRAM = false
	if opts.UseWRAM {
		e.lutInWRAM = true
		for i, d := range sys.DPUs {
			if err := d.AllocWRAM(stagingBytes + sqtBytes + e.metaPerDPU[i]*16); err != nil {
				return fmt.Errorf("core: WRAM: %w", err)
			}
			if d.WRAMFree() < e.lutBytes {
				e.lutInWRAM = false
			}
		}
		if e.lutInWRAM {
			for _, d := range sys.DPUs {
				if err := d.AllocWRAM(e.lutBytes); err != nil {
					return fmt.Errorf("core: WRAM LUT: %w", err)
				}
			}
		}
	} else {
		for _, d := range sys.DPUs {
			if err := d.AllocWRAM(stagingBytes); err != nil {
				return fmt.Errorf("core: WRAM staging: %w", err)
			}
		}
	}
	return nil
}
