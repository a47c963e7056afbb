package upmem

// Platform is an analytic model of a compute platform used for the paper's
// roofline analysis (Figure 2) and cross-platform scalability study
// (Figure 15). Only the quantities the roofline needs are modeled: peak
// arithmetic throughput, memory bandwidth, and capacity (for OOM checks).
type Platform struct {
	Name string
	// PeakGOPs is the peak arithmetic throughput in giga-operations/s for
	// the scalar integer/float ops ANNS issues.
	PeakGOPs float64
	// MemBWGBs is the peak memory bandwidth in GB/s.
	MemBWGBs float64
	// MemCapGB is usable memory capacity in GB; datasets larger than this
	// OOM (the GPU failure mode in Figure 2 and §5.4).
	MemCapGB float64
	// Threads and FreqGHz and VectorWidth feed the per-phase performance
	// model (#PE, F and effective lane count in Equations 1-12).
	Threads     int
	FreqGHz     float64
	VectorWidth int
}

// RooflineGOPs returns attainable throughput at the given arithmetic
// intensity (operations per byte): min(peak, AI * BW).
func (p Platform) RooflineGOPs(opsPerByte float64) float64 {
	bwBound := opsPerByte * p.MemBWGBs
	if bwBound < p.PeakGOPs {
		return bwBound
	}
	return p.PeakGOPs
}

// Fits reports whether a dataset of the given size fits in platform memory.
func (p Platform) Fits(datasetBytes float64) bool {
	return datasetBytes <= p.MemCapGB*1e9
}

// PlatformCPU models the paper's baseline CPU server: Intel Xeon Gold 5218
// (16 cores / 32 threads @ 2.3 GHz, AVX2) with 512 GB DDR4.
// Peak ~ 32 threads x 2.3 GHz x 8 lanes = 589 GOPs; ~100 GB/s of DRAM BW.
func PlatformCPU() Platform {
	return Platform{
		Name:        "CPU (Xeon Gold 5218, 32T AVX2)",
		PeakGOPs:    589,
		MemBWGBs:    100,
		MemCapGB:    512,
		Threads:     32,
		FreqGHz:     2.3,
		VectorWidth: 8,
	}
}

// PlatformHost models the host beside the DPUs that runs cluster locating
// and the final merge in every simulated engine: a Xeon Silver 4216 (16 cores
// / 32 threads @ 2.1 GHz, AVX2).
func PlatformHost() Platform {
	return Platform{
		Name:        "host (Xeon Silver 4216)",
		PeakGOPs:    538,
		MemBWGBs:    90,
		MemCapGB:    256,
		Threads:     32,
		FreqGHz:     2.1,
		VectorWidth: 8,
	}
}

// PlatformGPU models an NVIDIA A100 PCIe 80 GB: ~19.5 TFLOPs fp32 and
// ~1.94 TB/s HBM2e, but only 80 GB of memory.
func PlatformGPU() Platform {
	return Platform{
		Name:        "GPU (A100 PCIe 80GB)",
		PeakGOPs:    19500,
		MemBWGBs:    1940,
		MemCapGB:    80,
		Threads:     6912,
		FreqGHz:     1.41,
		VectorWidth: 1,
	}
}

// PlatformUPMEM models a UPMEM deployment with the given number of DIMMs
// (the paper's server: ~2543 DPUs over 32 DIMMs, i.e. ~80 DPUs/DIMM at
// 350 MHz). Compute, bandwidth and capacity all scale linearly with DIMMs —
// the adaptive-scalability property Figure 2 highlights.
func PlatformUPMEM(dimms int) Platform {
	dpus := float64(dimms) * 80
	return Platform{
		Name:        "UPMEM",
		PeakGOPs:    dpus * 0.35, // 1 instr/cycle/DPU at 350 MHz
		MemBWGBs:    dpus * 0.70, // ~700 MB/s streaming per DPU
		MemCapGB:    dpus * 0.064,
		Threads:     int(dpus),
		FreqGHz:     0.35,
		VectorWidth: 1,
	}
}

// PlatformHBMPIM models Samsung's HBM-PIM (FIMDRAM): SIMD FP16 units at
// bank level. The paper scales DRIM-ANN to it in simulation; compute is
// ~3.69 % of A100 with roughly 2x the GPU's effective internal bandwidth.
func PlatformHBMPIM() Platform {
	return Platform{
		Name:        "HBM-PIM (Samsung FIMDRAM)",
		PeakGOPs:    19500 * 0.0369,
		MemBWGBs:    3900,
		MemCapGB:    48,
		Threads:     4096,
		FreqGHz:     0.30,
		VectorWidth: 16,
	}
}

// PlatformAiM models SK Hynix's GDDR6-AiM: ~12.31 % of A100 compute with
// very high bank-level internal bandwidth.
func PlatformAiM() Platform {
	return Platform{
		Name:        "AiM (SK Hynix GDDR6-AiM)",
		PeakGOPs:    19500 * 0.1231,
		MemBWGBs:    8000,
		MemCapGB:    64,
		Threads:     8192,
		FreqGHz:     1.0,
		VectorWidth: 16,
	}
}
