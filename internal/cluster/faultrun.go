package cluster

// This file is the cluster layer's interpretation of a fault plan: how
// each dispatch policy detects a dead card, what work it loses, and how
// the survivors absorb it. The flash-wear and switch-window injections
// live in runShard (per-card retrier) and fabric.degrade respectively;
// everything here is card-death recovery and per-fault accounting.
//
// Recovery semantics, per policy:
//
//   - WorkSteal: the host keeps at most one unacknowledged dispatch per
//     card, so when a card dies exactly one in-flight claim is lost —
//     the one whose estimated completion overruns the death. The loss is
//     noticed after the plan's detect latency, the card is routed
//     around, and the lost instance re-enters the queue to be claimed by
//     a survivor (paying a fresh fabric dispatch, possibly through
//     another switch). Claims the estimate chain completed before the
//     death stay on the dead card and report as usual — the same
//     estimate-versus-simulation divergence the healthy claim loop
//     already accepts.
//
//   - RoundRobin: the policy is static, so the unit of loss is the
//     shard. A shard still running when its card dies is lost whole —
//     partial progress is discarded, because round-robin cards report
//     results only at shard completion. The lost applications are
//     re-sharded across the surviving cards by the same weighted-deficit
//     rotation, dispatched at detection time, and each survivor runs its
//     recovery pass after its own work (a card is one device; passes
//     serialize on it).
//
// Every decision above is a pure function of the plan and the simulated
// clock, so faulted runs golden-pin exactly like healthy ones.

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flash"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// wearFor returns the plan's flash wear model for one card
// configuration (geometry skews need per-class retriers), or nil when
// the plan injects no wear.
func wearFor(plan *faults.Plan, cfg core.Config) flash.ReadRetrier {
	if !plan.WearActive() {
		return nil
	}
	return faults.NewRetrier(plan, cfg.Flash)
}

// finishFaulted appends the plan-level fault records to a faulted
// aggregate: one per switch window, in plan event order, carrying the
// cluster throughput measured across the window; then the flash-wear
// rollup. A nil plan returns the result untouched.
func finishFaulted(res *stats.Result, plan *faults.Plan) *stats.Result {
	if plan == nil {
		return res
	}
	total := len(res.CompletionTimes)
	for _, ev := range plan.Events {
		if ev.Kind != faults.SwitchThrottle && ev.Kind != faults.SwitchFlap {
			continue
		}
		rec := stats.FaultRecord{Kind: ev.Kind.String(), Target: ev.Switch, At: ev.At, Until: ev.Until}
		if total > 0 && ev.Until > ev.At {
			in := 0
			for _, t := range res.CompletionTimes {
				if t >= ev.At && t < ev.Until {
					in++
				}
			}
			// Bytes are attributed per completion share, so the window
			// throughput is comparable to the run's headline MB/s.
			rec.DegradedTput = float64(res.Bytes) * (float64(in) / float64(total)) /
				units.Seconds(ev.Until-ev.At) / 1e6
		}
		res.Faults = append(res.Faults, rec)
	}
	return withWearRecord(res, plan)
}

// withWearRecord appends the flash-wear rollup: wear's cost is pure
// latency, so Lost carries the injected retry time and Redone the retry
// cycle count. Wear-free runs (or plans) are untouched.
func withWearRecord(res *stats.Result, plan *faults.Plan) *stats.Result {
	if !plan.WearActive() || res.FlashRetries == 0 {
		return res
	}
	res.Faults = append(res.Faults, stats.FaultRecord{
		Kind: "flash-wear", Target: "flash",
		Lost: res.RetryTime, Redone: int(res.FlashRetries),
	})
	return res
}

// claimWithDeaths is the work-steal claim loop, healthy or not. It
// repeatedly dispatches the (pending instance, live card) pair with the
// earliest request time — max(card free instant, instance's detection
// hold) — which keeps fabric request times non-decreasing even as deaths
// reshuffle the queue. Ties pick the lowest queue position, then the
// lowest card id, so the schedule is deterministic (with no deaths, the
// queue is claimed in order by the earliest-free card). A claim whose
// estimated completion overruns its card's death is the card's one lost
// in-flight dispatch: the card is marked dead, the progress since the
// claim's arrival is charged as lost work, and the instance re-enters the
// queue, dispatchable only after the host detects the death.
//
// It returns each card's claimed instances and first-arrival instant,
// and each dead card's fault record, all indexed by card.
func claimWithDeaths(b *workload.Bundle, cards []card, fab *fabric, plan *faults.Plan,
	instances []workload.App, probes []*stats.Result) (claims [][]workload.App, starts []units.Duration, records [][]stats.FaultRecord, err error) {

	n := len(instances)
	deaths := plan.DeathTimes(len(cards))
	if deaths == nil { // a healthy run: nobody dies
		deaths = slices.Repeat([]units.Duration{faults.NoDeath}, len(cards))
	}
	free := make([]units.Duration, len(cards))
	claims = make([][]workload.App, len(cards))
	starts = make([]units.Duration, len(cards))
	detect := plan.DetectLatency()
	detectAt := make([]units.Duration, len(cards))
	for c, t := range deaths {
		detectAt[c] = faults.NoDeath
		if t != faults.NoDeath && t+detect > t { // saturate on overflow
			detectAt[c] = t + detect
		}
	}

	type pending struct {
		inst int
		nb   units.Duration // not dispatchable before (death detection)
		from int            // card whose death requeued it, -1 initially
	}
	queue := make([]pending, n)
	for i := range queue {
		queue[i] = pending{inst: i, from: -1}
	}
	dead := make([]bool, len(cards))
	lost := make([]units.Duration, len(cards))
	redone := make([]int, len(cards))
	recov := make([]units.Duration, len(cards))

	for len(queue) > 0 {
		bq, bc := -1, -1
		var bestReq units.Duration
		for q := range queue {
			for c := range cards {
				if dead[c] {
					continue
				}
				req := units.MaxTime(free[c], queue[q].nb)
				if req >= detectAt[c] {
					continue // the host has detected this card's death
				}
				if bq < 0 || req < bestReq {
					bq, bc, bestReq = q, c, req
				}
			}
		}
		if bq < 0 {
			// Unreachable after ValidateFor (a survivor is always
			// eligible), but a defensive error beats a livelock.
			return nil, nil, nil, fmt.Errorf("cluster: %s: fault plan leaves no live card to claim the queue", b.Name)
		}
		it := queue[bq]
		queue = append(queue[:bq], queue[bq+1:]...)
		i := it.inst
		arrive := fab.dispatch(bestReq, cards[bc].sw, offloadBytes(instances[i:i+1]))
		end := arrive + probes[cards[bc].class*n+i].Makespan
		if deaths[bc] != faults.NoDeath && end > deaths[bc] {
			dead[bc] = true
			if deaths[bc] > arrive {
				lost[bc] += deaths[bc] - arrive // progress executed, then thrown away
			}
			redone[bc]++
			queue = append(queue, pending{inst: i, nb: detectAt[bc], from: bc})
			continue
		}
		if len(claims[bc]) == 0 {
			starts[bc] = arrive
		}
		claims[bc] = append(claims[bc], instances[i])
		free[bc] = end
		if it.from >= 0 {
			if r := end - deaths[it.from]; r > recov[it.from] {
				recov[it.from] = r
			}
		}
	}

	records = make([][]stats.FaultRecord, len(cards))
	for c, t := range deaths {
		if t == faults.NoDeath {
			continue
		}
		records[c] = append(records[c], stats.FaultRecord{
			Kind: "card-death", Target: fmt.Sprintf("card%d", c),
			At: t, Detect: detect, Recovery: recov[c], Lost: lost[c], Redone: redone[c],
		})
	}
	return claims, starts, records, nil
}

// rrShard is one round-robin dispatch unit: an application subset bound
// to a card, with the host-time offset its device run starts at.
type rrShard struct {
	card   int
	apps   []int // indices into b.Apps
	offset units.Duration
	res    *stats.Result
	lost   bool // discarded by a card death before completing
}

// recoverRoundRobin replays the plan's card deaths over a completed
// round-robin dispatch and assembles its parts: deaths are processed in
// time order, each one discards the dead card's unfinished shards whole,
// and the lost applications are re-sharded across the survivors
// (weighted-deficit, like the initial assignment), dispatched at
// detection time, and run as fresh device passes that serialize after
// each survivor's own work. A healthy run has no deaths to replay.
func recoverRoundRobin(ctx context.Context, b *workload.Bundle, cards []card, fab *fabric,
	o Options, plan *faults.Plan,
	assigned [][]int, offsets []units.Duration, results []*stats.Result) ([]stats.Part, error) {

	deaths := plan.DeathTimes(len(cards))
	detect := plan.DetectLatency()
	var shards []*rrShard
	busy := make([]units.Duration, len(cards)) // each card's last pass end
	for c := range cards {
		if len(assigned[c]) == 0 {
			continue
		}
		shards = append(shards, &rrShard{card: c, apps: assigned[c], offset: offsets[c], res: results[c]})
		busy[c] = offsets[c] + results[c].Makespan
	}

	type deathEv struct {
		card int
		at   units.Duration
	}
	var evs []deathEv
	for c, t := range deaths {
		if t != faults.NoDeath {
			evs = append(evs, deathEv{card: c, at: t})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].card < evs[j].card
	})

	dead := make([]bool, len(cards))
	records := make([][]stats.FaultRecord, len(cards))
	for _, ev := range evs {
		rec := stats.FaultRecord{Kind: "card-death", Target: fmt.Sprintf("card%d", ev.card),
			At: ev.at, Detect: detect}
		dead[ev.card] = true
		var lostApps []int
		for _, sh := range shards {
			if sh.card != ev.card || sh.lost {
				continue
			}
			if sh.offset+sh.res.Makespan <= ev.at {
				continue // completed before the death
			}
			sh.lost = true
			if ev.at > sh.offset {
				rec.Lost += ev.at - sh.offset // progress executed, then thrown away
			}
			lostApps = append(lostApps, sh.apps...)
		}
		sort.Ints(lostApps)
		rec.Redone = len(lostApps)
		if len(lostApps) > 0 {
			var aliveIdx []int
			var alive []card
			for c := range cards {
				if !dead[c] {
					aliveIdx = append(aliveIdx, c)
					alive = append(alive, cards[c])
				}
			}
			detAt := ev.at + detect
			var fresh []*rrShard
			for p, posns := range assignApps(alive, len(lostApps)) {
				if len(posns) == 0 {
					continue
				}
				idxs := make([]int, 0, len(posns))
				for _, q := range posns {
					idxs = append(idxs, lostApps[q])
				}
				c := aliveIdx[p]
				arrive := fab.dispatch(detAt, cards[c].sw, offloadBytes(appsOf(b, idxs)))
				fresh = append(fresh, &rrShard{card: c, apps: idxs, offset: units.MaxTime(arrive, busy[c])})
			}
			res2, err := runner.Collect(ctx, runner.New(o.Workers), len(fresh),
				func(ctx context.Context, k int) (*stats.Result, error) {
					sh := fresh[k]
					res, err := runShard(ctx, sh.card, cards[sh.card].cfg, b, appsOf(b, sh.apps),
						o.Images, wearFor(plan, cards[sh.card].cfg))
					if err != nil {
						return nil, fmt.Errorf("%s/%s: card %d recovery: %w",
							b.Name, cards[sh.card].cfg.System, sh.card, err)
					}
					return res, nil
				})
			if err != nil {
				return nil, err
			}
			for k, sh := range fresh {
				sh.res = res2[k]
				busy[sh.card] = sh.offset + sh.res.Makespan
				if r := busy[sh.card] - ev.at; r > rec.Recovery {
					rec.Recovery = r
				}
				shards = append(shards, sh)
			}
		}
		records[ev.card] = append(records[ev.card], rec)
	}

	// Parts assemble in card order (shards in creation order within a
	// card), with each dead card's record carried by a trailing empty
	// part, so aggregation order is a pure function of the plan.
	var parts []stats.Part
	for c := range cards {
		label := fab.label(cards[c].sw)
		kept := false
		for _, sh := range shards {
			if sh.card != c || sh.lost {
				continue
			}
			parts = append(parts, stats.Part{Res: sh.res, Offset: sh.offset, Switch: label})
			kept = true
		}
		switch {
		case len(records[c]) > 0:
			parts = append(parts, stats.Part{Switch: label, Faults: records[c]})
		case !kept && label != "":
			parts = append(parts, stats.Part{Switch: label})
		}
	}
	return parts, nil
}

// appsOf resolves application indices back to the bundle's entries.
func appsOf(b *workload.Bundle, idxs []int) []workload.App {
	out := make([]workload.App, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, b.Apps[i])
	}
	return out
}
