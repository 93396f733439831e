package avail

import "math"

// RAID 6 / AFRAID6 analytics for the §5 extension. The array has N
// data disks plus P and Q (Disks = N+2 here; Params.Disks counts all
// spindles, so N = Disks-2 for these functions).

// n6 returns the data-disk count of a RAID 6 array with p.Disks
// spindles.
func (p Params) n6() float64 { return float64(p.Disks - 2) }

// RAID6CatastrophicMTTDL returns the mean time to a triple-disk failure
// (the only disk-related loss mode of a healthy RAID 6):
//
//	MTTF^3 / (N (N+1) (N+2) MTTR^2)
func (p Params) RAID6CatastrophicMTTDL() float64 {
	n := p.n6()
	mttf := p.DiskMTTF()
	return mttf * mttf * mttf / (n * (n + 1) * (n + 2) * p.MTTR * p.MTTR)
}

// RAID6CatastrophicMDLR returns the loss rate of the triple-failure
// mode: three disks of data (discounted by the two-parity overhead).
func (p Params) RAID6CatastrophicMDLR() float64 {
	n := p.n6()
	return 3 * p.DiskSize * (n / (n + 2)) / p.RAID6CatastrophicMTTDL()
}

// doubleFailureMTTDL returns the mean time to a double-disk failure of
// the whole array (the loss mode of a RAID 6 stripe whose Q is stale —
// it is then only single-failure tolerant, like RAID 5):
//
//	MTTF^2 / ((N+1) (N+2) MTTR)
func (p Params) doubleFailureMTTDL() float64 {
	n := p.n6()
	mttf := p.DiskMTTF()
	return mttf * mttf / ((n + 1) * (n + 2) * p.MTTR)
}

// AFRAID6DiskMTTDL combines the exposure modes of an AFRAID6 array
// measured to be not-fully-redundant for fraction fracUnprot of the
// time, whose writes keep sync ∈ {0, 1} of the two parities current:
//
//   - sync = 1 (Q deferred): dirty stripes are RAID 5-grade, so the
//     exposed fraction contributes at the double-failure rate;
//   - sync = 0 (both deferred): dirty stripes are unprotected, so the
//     exposed fraction contributes at the any-single-disk rate, as in
//     eq (2a).
//
// The protected fraction contributes at the RAID 6 triple-failure rate.
func (p Params) AFRAID6DiskMTTDL(fracUnprot float64, sync int) float64 {
	if fracUnprot < 0 || fracUnprot > 1 {
		panic("avail: unprotected fraction out of [0,1]")
	}
	exposed := p.doubleFailureMTTDL()
	if checkSync6(sync) == 0 {
		exposed = p.DiskMTTF() / float64(p.Disks) // single failure bites
	}
	var comps []float64
	if fracUnprot > 0 {
		comps = append(comps, exposed/fracUnprot)
	}
	if fracUnprot < 1 {
		comps = append(comps, p.RAID6CatastrophicMTTDL()/(1-fracUnprot))
	}
	if len(comps) == 0 {
		return math.Inf(1)
	}
	return Combine(comps...)
}

// MDLR6Unprotected returns the loss rate from the measured mean parity
// lag of an AFRAID6 array (bytes of not-fully-redundant data) whose
// writes keep sync ∈ {0, 1} parities current:
//
//   - sync = 0: one strip per dirty stripe is lost on any single disk
//     failure — eq (4) with N+2 spindles;
//   - sync = 1: loss additionally requires a second failure within the
//     repair window.
func (p Params) MDLR6Unprotected(meanParityLag float64, sync int) float64 {
	if meanParityLag < 0 {
		panic("avail: negative parity lag")
	}
	n := p.n6()
	perStripeLoss := meanParityLag / n
	if checkSync6(sync) == 0 {
		return perStripeLoss * (n + 2) / p.DiskMTTF()
	}
	return perStripeLoss / p.doubleFailureMTTDL()
}

// checkSync6 returns sync, panicking unless an AFRAID6 write can keep
// that many parities current while deferring the rest.
func checkSync6(sync int) int {
	if sync != 0 && sync != 1 {
		panic("avail: AFRAID6 sync count out of {0,1}")
	}
	return sync
}

// AFRAID6Report derives the availability report for an AFRAID6 run
// whose writes keep sync ∈ {0, 1} parities current.
func (p Params) AFRAID6Report(fracUnprot, meanParityLag float64, sync int) Report {
	disk := p.AFRAID6DiskMTTDL(fracUnprot, sync)
	mdlr := p.RAID6CatastrophicMDLR() + p.MDLR6Unprotected(meanParityLag, sync)
	return Report{
		FracUnprotected: fracUnprot,
		MeanParityLag:   meanParityLag,
		DiskMTTDL:       disk,
		OverallMTTDL:    p.OverallMTTDL(disk),
		DiskMDLR:        mdlr,
		OverallMDLR:     mdlr + p.SupportMDLR(),
	}
}
