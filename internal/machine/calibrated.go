package machine

// Calibrated presets.
//
// The paper's published Hockney parameters predict the *location* of the
// optimal group count but not the magnitude of the measured times: its own
// validation sections concede this ("we do not have experimental minimum
// exactly at G=√p as predicted"), and the measured SUMMA communication
// times (36.46 s on 16384 BG/P cores; ~24 s on 128 Grid'5000 cores at
// b=64) exceed the congestion-free model by roughly two orders of
// magnitude — sub-communicator broadcasts on both machines pay large
// effective per-message software/routing costs the bare wire parameters
// ignore.
//
// The presets below substitute the unavailable machines with *effective*
// Hockney parameters fitted ONLY to the paper's measured SUMMA numbers
// (never to HSUMMA): with the machine pinned down by the baseline, every
// HSUMMA ratio the simulator then produces is a genuine prediction of the
// algorithm's schedules. The fits are recorded here and re-derived in the
// package tests.

// BlueGenePCalibrated returns the effective BG/P machine fitted to the
// paper's measured SUMMA communication times with the scatter-allgather
// (Van de Geijn) broadcast MPICH selects for these ~1 MB messages:
//
//	comm(p) ≈ 2·(n/b)·L(√p)·α_eff + 2·(n²/√p)·W(√p)·β
//	36.46 s at p=16384 (n=65536, b=256) ⇒ α_eff ≈ 36.46/68608 ≈ 5.3e-4 s
//
// (the p=2048 anchor, ≈10 s from Figure 9, then predicts 13.5 s — the
// two-point fit makes β's contribution negative, so β keeps its published
// value and the latency term absorbs the per-message cost; see
// `hsumma-run exp valbgp`). γ is unchanged: computation was measured
// directly.
func BlueGenePCalibrated() Platform {
	pf := BlueGeneP()
	pf.Name = "BlueGene/P (Shaheen, calibrated)"
	pf.Model.Alpha = 5.31e-4
	return pf
}

// Grid5000Calibrated returns the effective Graphene machine fitted to the
// paper's two measured SUMMA communication times (both at n=8192, p=128):
// ≈24 s at b=64 and ≈4.53 s at b=512. Solving the two linear equations
//
//	3533·α_eff + 2.32e7·β_eff = 24      (b=64)
//	 442·α_eff + 2.32e7·β_eff = 4.53    (b=512)
//
// gives α_eff ≈ 6.3e-3 s and β_eff ≈ 7.5e-8 s/element (≈9.4 ns/byte —
// about 107 MB/s effective, a plausible saturated shared-Ethernet figure).
func Grid5000Calibrated() Platform {
	pf := Grid5000()
	pf.Name = "Grid5000/Graphene (calibrated)"
	pf.Model.Alpha = 6.3e-3
	pf.Model.Beta = 7.5e-8
	return pf
}
