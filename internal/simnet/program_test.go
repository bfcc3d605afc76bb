package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sched"
)

// refExecOne is the transfer-by-transfer executor compiled programs
// replace: every transfer's duration evaluated at fire time, each round's
// clock updates buffered and applied after the round, and the Van de
// Geijn ring suffix in closed form under uniform links. Compiled ExecOne
// must match it bit for bit.
func refExecOne(s *Sim, sc *sched.Schedule, members []int, payload float64) {
	for round, r := range sc.Rounds {
		if round == sc.RingStart && s.linkCost == nil {
			p := len(members)
			eff := s.model
			eff.Beta *= s.contention(p)
			perHop := eff.PointToPoint(payload / float64(sc.Segments))
			maxClock := 0.0
			for _, m := range members {
				if s.clocks[m] > maxClock {
					maxClock = s.clocks[m]
				}
			}
			final := maxClock + float64(sc.RingRounds)*perHop
			for _, m := range members {
				s.comm[m] += final - s.clocks[m]
				s.clocks[m] = final
			}
			return
		}
		factor := s.contention(len(r.Transfers))
		var updates []update
		for _, t := range r.Transfers {
			src, dst := members[t.Src], members[t.Dst]
			eff := s.model
			eff.Beta *= factor * s.linkFactor(src, dst)
			start := s.clocks[src]
			if s.clocks[dst] > start {
				start = s.clocks[dst]
			}
			end := start + eff.PointToPoint(sc.SegBytes(t, payload))
			updates = append(updates, update{src, end}, update{dst, end})
		}
		for _, u := range updates {
			if u.end > s.clocks[u.rank] {
				s.comm[u.rank] += u.end - s.clocks[u.rank]
				s.clocks[u.rank] = u.end
			}
		}
	}
}

// TestCompiledExecOneBitIdentical: for both broadcasts, every size from 2
// to 33 and every root, payloads that do not divide into the segments,
// each contention model and a link model, a collective fired through a
// compiled program — from Compile's table or compiled on the spot —
// leaves clocks and communication times bit-identical to the reference
// executor, from uneven starting clocks and with members scattered over
// a larger world.
func TestCompiledExecOneBitIdentical(t *testing.T) {
	const world = 40
	models := []struct {
		name       string
		contention ContentionFunc
		link       LinkCostFunc
	}{
		{"none", NoContention, nil},
		{"shared", SharedSegment, nil},
		{"torus", TorusContention(2, world), nil},
		{"torus+link", TorusContention(1, 8), func(a, b int) float64 { return 1 + float64((a*7+b*3)%5)/4 }},
	}
	for _, mc := range models {
		for _, alg := range sched.Algorithms() {
			for p := 2; p <= 33; p++ {
				for root := 0; root < p; root++ {
					for _, elems := range []int{1, 7*p + 3, 1000003} {
						name := fmt.Sprintf("%s/%s/p%d/root%d/n%d", mc.name, alg, p, root, elems)
						members := make([]int, p)
						for i := range members {
							members[i] = (i*17 + root + 3) % world // distinct: 17 and 40 are coprime
						}
						sims := make([]*Sim, 3)
						for i := range sims {
							sims[i] = New(world, testModel)
							sims[i].SetContention(mc.contention)
							sims[i].SetLinkCost(mc.link)
							for r := 0; r < world; r++ {
								sims[i].ComputeRank(r, float64((r*7919)%1000)*1e3)
							}
						}
						sc, err := sched.NewBroadcast(alg, p, root)
						if err != nil {
							t.Fatal(err)
						}
						pr, err := sims[1].Compile(alg, p, root, elems)
						if err != nil {
							t.Fatal(err)
						}
						refExecOne(sims[0], sc, members, float64(elems))
						sims[1].ExecOne(pr, members)
						sims[2].ExecOne(sims[2].compile(sc, float64(elems)), members)
						for i := 1; i < len(sims); i++ {
							for r := 0; r < world; r++ {
								if sims[i].Clock(r) != sims[0].Clock(r) || sims[i].CommTime(r) != sims[0].CommTime(r) {
									t.Fatalf("%s: engine %d rank %d: clock %v comm %v, reference clock %v comm %v", name, i, r,
										sims[i].Clock(r), sims[i].CommTime(r), sims[0].Clock(r), sims[0].CommTime(r))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCompileTableKeepsPrograms: Compile returns one program per
// (algorithm, size, root, payload), different programs for different
// payloads of one broadcast, and starts over when the contention model
// changes (the durations depend on it).
func TestCompileTableKeepsPrograms(t *testing.T) {
	sim := New(8, testModel)
	a, _ := sim.Compile(sched.VanDeGeijn, 8, 3, 100)
	b, _ := sim.Compile(sched.VanDeGeijn, 8, 3, 100)
	c, _ := sim.Compile(sched.VanDeGeijn, 8, 3, 101)
	d, _ := sim.Compile(sched.VanDeGeijn, 8, 3, 100)
	if a != b || a == c || a != d {
		t.Fatalf("table returned %p %p %p %p", a, b, c, d)
	}
	sim.SetContention(SharedSegment)
	if e, _ := sim.Compile(sched.VanDeGeijn, 8, 3, 100); e == a {
		t.Fatal("program survived a contention change")
	}
	if _, err := sim.Compile("ring", 8, 0, 1); err == nil {
		t.Fatal("unknown algorithm compiled")
	}
	// The traffic is the live wire's: one message per transfer, bytes
	// from the integer segment split.
	sc, _ := sched.NewBroadcast(sched.VanDeGeijn, 8, 3)
	want := make([]VRankStats, 8)
	for _, r := range sc.Rounds {
		for _, x := range r.Transfers {
			lo, hi := sched.SegmentRange(100, sc.Segments, x.SegLo, x.SegHi)
			want[x.Src].SentMessages++
			want[x.Src].SentBytes += int64(8 * (hi - lo))
		}
	}
	for i := range want {
		if a.Traffic[i] != want[i] {
			t.Fatalf("schedule rank %d traffic %+v, want %+v", i, a.Traffic[i], want[i])
		}
	}
}
