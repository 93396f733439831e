// Package avail implements the paper's analytic availability models
// (§3): mean time to data loss (MTTDL) and mean data loss rate (MDLR)
// for RAID 5, RAID 0, and AFRAID, plus the support-component, NVRAM, and
// external-power models that dominate real arrays.
//
// Conventions: times are in hours, data in bytes (decimal units, as the
// paper's "2GB disk" arithmetic assumes), rates in bytes/hour. The
// AFRAID-specific inputs — the fraction of time any data is unprotected
// (Tunprot/Ttotal) and the mean parity lag in bytes — are measured by
// the simulator and fed in here.
package avail

import (
	"fmt"
	"math"
)

// HoursPerYear converts between the paper's units.
const HoursPerYear = 8760.0

// Params carries the Table 1 constants plus the array shape.
type Params struct {
	// DiskMTTFRaw is the manufacturer disk MTTF in hours (1M).
	DiskMTTFRaw float64
	// Coverage is the fraction of disk failures predicted in advance
	// (C = 0.5): predicted failures are repaired before they bite.
	Coverage float64
	// MTTR is the repair time in hours (48).
	MTTR float64
	// SupportMTTDL is the aggregated non-disk MTTDL in hours (2M).
	SupportMTTDL float64
	// Disks is the total number of disks including parity (5).
	Disks int
	// DiskSize is the per-disk capacity in bytes (2 GB decimal).
	DiskSize float64
	// StripeUnit is the stripe unit size in bytes (8 KB).
	StripeUnit float64
}

// Default returns the paper's Table 1 values for the 5-disk array.
func Default() Params {
	return Params{
		DiskMTTFRaw:  1e6,
		Coverage:     0.5,
		MTTR:         48,
		SupportMTTDL: 2e6,
		Disks:        5,
		DiskSize:     2e9,
		StripeUnit:   8192,
	}
}

// DiskMTTF returns the effective disk MTTF after failure-prediction
// coverage: MTTFdisk = MTTFdisk-raw / (1 - C).
func (p Params) DiskMTTF() float64 { return p.DiskMTTFRaw / (1 - p.Coverage) }

// N returns the number of data disks (the paper's N; the array has N+1).
func (p Params) N() int { return p.Disks - 1 }

// DataCapacity returns the client-visible bytes of the RAID 5 array.
func (p Params) DataCapacity() float64 { return float64(p.N()) * p.DiskSize }

// RAID5CatastrophicMTTDL implements equation (1):
//
//	MTTDL = MTTFdisk^2 / (N (N+1) MTTR)
func (p Params) RAID5CatastrophicMTTDL() float64 {
	n := float64(p.N())
	mttf := p.DiskMTTF()
	return mttf * mttf / (n * (n + 1) * p.MTTR)
}

// RAID5CatastrophicMDLR implements equation (3): two disks of data lost
// (discounted by the parity fraction) at the catastrophic rate.
func (p Params) RAID5CatastrophicMDLR() float64 {
	n := float64(p.N())
	return 2 * p.DiskSize * (n / (n + 1)) / p.RAID5CatastrophicMTTDL()
}

// RAID0DiskMTTDL returns the disk-related MTTDL of an unprotected array:
// any single disk failure loses data, so MTTFdisk/(N+1).
func (p Params) RAID0DiskMTTDL() float64 {
	return p.DiskMTTF() / float64(p.Disks)
}

// RAID0MDLR returns the unprotected array's data loss rate: one disk's
// worth of data at the all-disks failure rate.
func (p Params) RAID0MDLR() float64 {
	return p.DiskSize / p.RAID0DiskMTTDL() // = Disks * DiskSize / MTTF
}

// AFRAIDUnprotectedMTTDL implements equation (2a): the contribution of
// single-disk failures while unprotected data exists. fracUnprot is
// Tunprot/Ttotal, measured from a run. A zero fraction yields +Inf
// (no exposure).
func (p Params) AFRAIDUnprotectedMTTDL(fracUnprot float64) float64 {
	if fracUnprot < 0 || fracUnprot > 1 {
		panic(fmt.Sprintf("avail: unprotected fraction %g out of [0,1]", fracUnprot))
	}
	if fracUnprot == 0 {
		return math.Inf(1)
	}
	return (1 / fracUnprot) * p.DiskMTTF() / float64(p.Disks)
}

// AFRAIDRAIDMTTDL implements equation (2b): the catastrophic dual-disk
// contribution, scaled to the fraction of time the array is fully
// protected.
func (p Params) AFRAIDRAIDMTTDL(fracUnprot float64) float64 {
	if fracUnprot >= 1 {
		return math.Inf(1) // never fully protected: no RAID-mode exposure
	}
	return p.RAID5CatastrophicMTTDL() / (1 - fracUnprot)
}

// AFRAIDDiskMTTDL implements equation (2c): the harmonic combination of
// (2a) and (2b).
func (p Params) AFRAIDDiskMTTDL(fracUnprot float64) float64 {
	return Combine(p.AFRAIDUnprotectedMTTDL(fracUnprot), p.AFRAIDRAIDMTTDL(fracUnprot))
}

// MDLRUnprotected implements equation (4): the loss rate from single-
// disk failures given the measured mean parity lag in bytes.
//
//	MDLR = (lag/N) * (N+1)/MTTFdisk
func (p Params) MDLRUnprotected(meanParityLag float64) float64 {
	if meanParityLag < 0 {
		panic(fmt.Sprintf("avail: negative parity lag %g", meanParityLag))
	}
	n := float64(p.N())
	return (meanParityLag / n) * (n + 1) / p.DiskMTTF()
}

// AFRAIDMDLR implements equation (5): catastrophic plus unprotected
// contributions.
func (p Params) AFRAIDMDLR(meanParityLag float64) float64 {
	return p.RAID5CatastrophicMDLR() + p.MDLRUnprotected(meanParityLag)
}

// SupportMDLR returns the loss rate implied by support-component
// failures, which destroy the whole array's data.
func (p Params) SupportMDLR() float64 {
	return p.DataCapacity() / p.SupportMTTDL
}

// Combine returns the harmonic combination of independent MTTDL
// components (rates add): 1 / sum(1/m_i). Infinite components are
// ignored; combining nothing returns +Inf.
func Combine(mttdls ...float64) float64 {
	rate := 0.0
	for _, m := range mttdls {
		if m <= 0 {
			panic(fmt.Sprintf("avail: non-positive MTTDL %g", m))
		}
		if !math.IsInf(m, 1) {
			rate += 1 / m
		}
	}
	if rate == 0 {
		return math.Inf(1)
	}
	return 1 / rate
}

// OverallMTTDL combines a disk-related MTTDL with the support hardware.
func (p Params) OverallMTTDL(diskMTTDL float64) float64 {
	return Combine(diskMTTDL, p.SupportMTTDL)
}

// Power models external power failures (§3.5).
type Power struct {
	// MainsMTTF is the mean time between power failures (4300 h).
	MainsMTTF float64
	// UPSMTTF, when positive, substitutes an uninterruptible supply
	// (200k h for a high-grade unit).
	UPSMTTF float64
	// WriteDuty is the fraction of time writes are outstanding; a
	// power failure is only harmful then (paper uses 10%).
	WriteDuty float64
	// LossBytes is the data corrupted per harmful power failure
	// (in-flight writes; ~30 KB doubles the RAID 5 MDLR as in §3.5).
	LossBytes float64
}

// DefaultPower returns the paper's §3.5 values.
func DefaultPower() Power {
	return Power{MainsMTTF: 4300, UPSMTTF: 0, WriteDuty: 0.10, LossBytes: 30e3}
}

// MTTDL returns the power-related MTTDL: failures are harmful only
// during the write duty cycle.
func (pw Power) MTTDL() float64 {
	if pw.WriteDuty <= 0 {
		return math.Inf(1)
	}
	mttf := pw.MainsMTTF
	if pw.UPSMTTF > 0 {
		mttf = pw.UPSMTTF
	}
	return mttf / pw.WriteDuty
}

// MDLR returns the power-related loss rate.
func (pw Power) MDLR() float64 {
	m := pw.MTTDL()
	if math.IsInf(m, 1) {
		return 0
	}
	return pw.LossBytes / m
}

// NVRAMMDLR returns the loss rate of a single-copy NVRAM holding
// vulnerable bytes with the given MTTF (§3.4: the PrestoServe example is
// 1 MB at 15k hours => 67 bytes/hour).
func NVRAMMDLR(vulnerableBytes, mttf float64) float64 {
	if mttf <= 0 {
		panic(fmt.Sprintf("avail: non-positive NVRAM MTTF %g", mttf))
	}
	return vulnerableBytes / mttf
}

// Report bundles the derived availability figures for one measured run.
type Report struct {
	FracUnprotected float64 // Tunprot / Ttotal
	MeanParityLag   float64 // bytes

	DiskMTTDL    float64 // disk-related MTTDL (hours)
	OverallMTTDL float64 // including support components
	DiskMDLR     float64 // bytes/hour from disk failures
	OverallMDLR  float64 // including support components
}

// AFRAIDReport derives the full availability report from measured
// Tunprot/Ttotal and mean parity lag.
func (p Params) AFRAIDReport(fracUnprot, meanParityLag float64) Report {
	disk := p.AFRAIDDiskMTTDL(fracUnprot)
	return Report{
		FracUnprotected: fracUnprot,
		MeanParityLag:   meanParityLag,
		DiskMTTDL:       disk,
		OverallMTTDL:    p.OverallMTTDL(disk),
		DiskMDLR:        p.AFRAIDMDLR(meanParityLag),
		OverallMDLR:     p.AFRAIDMDLR(meanParityLag) + p.SupportMDLR(),
	}
}

// RAID5Report derives the figures for a conventional RAID 5 (zero lag,
// never unprotected).
func (p Params) RAID5Report() Report {
	disk := p.RAID5CatastrophicMTTDL()
	return Report{
		DiskMTTDL:    disk,
		OverallMTTDL: p.OverallMTTDL(disk),
		DiskMDLR:     p.RAID5CatastrophicMDLR(),
		OverallMDLR:  p.RAID5CatastrophicMDLR() + p.SupportMDLR(),
	}
}

// RAID0Report derives the figures for the unprotected array.
func (p Params) RAID0Report() Report {
	disk := p.RAID0DiskMTTDL()
	return Report{
		FracUnprotected: 1,
		DiskMTTDL:       disk,
		OverallMTTDL:    p.OverallMTTDL(disk),
		DiskMDLR:        p.RAID0MDLR(),
		OverallMDLR:     p.RAID0MDLR() + p.SupportMDLR(),
	}
}
