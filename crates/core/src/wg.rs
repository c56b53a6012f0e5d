//! The warp-group transaction scheduler (WG / WG-M / WG-Bw / WG-W).
//!
//! Replaces the baseline's Row Sorter with the **Warp Sorter** of Fig. 6:
//! pending read requests are grouped by warp-group; among *fully arrived*
//! groups, the Bank-Table shortest-job-first rule picks the group with the
//! lowest completion score, and the group is then drained as a unit (one
//! request per cycle into the command queues).
//!
//! Optional features layer the paper's refinements on top — see the crate
//! docs for the scheme/feature matrix.

use crate::score::{group_score, GroupScore};
use ldsim_memctrl::{CoordMsg, Policy, PolicyView};
use ldsim_types::clock::Cycle;
use ldsim_types::config::{MemConfig, SchedulerKind};
use ldsim_types::ids::WarpGroupId;
use ldsim_types::req::MemRequest;
use ldsim_util::{FnvHashMap, FnvHashSet};
use std::collections::BTreeMap;

/// Which of the paper's refinements are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WgFlags {
    /// WG-M: accept/emit score-coordination messages (Section IV-C).
    pub coordinate: bool,
    /// WG-Bw: MERB-gated row-miss insertion (Section IV-D).
    pub merb: bool,
    /// WG-W: pre-drain priority for unit warp-groups (Section IV-E).
    pub write_aware: bool,
    /// WG-S: prefer warp-groups whose lines are shared by multiple warps —
    /// the future-work extension of Section VIII.
    pub shared_aware: bool,
}

impl WgFlags {
    pub fn for_kind(kind: SchedulerKind) -> Option<(Self, &'static str)> {
        match kind {
            SchedulerKind::Wg => Some((
                WgFlags {
                    coordinate: false,
                    merb: false,
                    write_aware: false,
                    shared_aware: false,
                },
                "WG",
            )),
            SchedulerKind::WgM => Some((
                WgFlags {
                    coordinate: true,
                    merb: false,
                    write_aware: false,
                    shared_aware: false,
                },
                "WG-M",
            )),
            SchedulerKind::WgBw => Some((
                WgFlags {
                    coordinate: true,
                    merb: true,
                    write_aware: false,
                    shared_aware: false,
                },
                "WG-Bw",
            )),
            SchedulerKind::WgW => Some((
                WgFlags {
                    coordinate: true,
                    merb: true,
                    write_aware: true,
                    shared_aware: false,
                },
                "WG-W",
            )),
            SchedulerKind::WgShared => Some((
                WgFlags {
                    coordinate: true,
                    merb: true,
                    write_aware: true,
                    shared_aware: true,
                },
                "WG-S",
            )),
            _ => None,
        }
    }
}

/// One warp-group's waiting requests.
#[derive(Debug, Default)]
struct GroupEntry {
    reqs: Vec<MemRequest>,
    /// Arrival order of the group's first request (final tie-breaker,
    /// guaranteeing forward progress). Immutable for the group's lifetime
    /// and unique across live groups — the seq-keyed indexes below rely on
    /// both properties.
    seq: u64,
    /// Cycle the group's first request arrived (starvation guard).
    first_arrival: Cycle,
}

/// Pending requests for one `(bank, row)` pair, indexed for the MERB gate
/// (DESIGN.md §13): total count (orphan control needs it) plus, per holding
/// group, the group's seq and its share of the count — so "oldest group with
/// a pending hit on this row" is the first key of `by_seq` instead of a scan
/// over every group's request list.
#[derive(Debug, Default, Clone)]
struct RowTally {
    count: u32,
    by_seq: BTreeMap<u64, (WarpGroupId, u32)>,
}

/// The warp-aware transaction scheduler.
pub struct WarpGroupPolicy {
    flags: WgFlags,
    name: &'static str,
    /// Starvation guard: a group whose first request has waited longer than
    /// this is force-prioritised (the same liveness rule the GMC baseline
    /// applies; plain SJF would starve large warp-groups indefinitely).
    age_threshold: Cycle,
    groups: FnvHashMap<WarpGroupId, GroupEntry>,
    /// Requests pending per bank.
    bank_count: Vec<usize>,
    total: usize,
    seq: u64,
    /// Group currently being drained as a unit.
    active: Option<WarpGroupId>,
    /// Lowest remote completion score received per group (WG-M): the local
    /// score is capped at this value, prioritising warps already serviced
    /// elsewhere.
    remote_cap: FnvHashMap<WarpGroupId, u32>,
    coord_out: Vec<CoordMsg>,
    /// Scratch for score computation (see [`group_score`]).
    scratch: Vec<u32>,
    /// Every live group, ordered by `seq` (incremental index, DESIGN.md
    /// §13): the starvation guard, the partial-group fallback and the
    /// bypass candidate walk all read oldest-first from here instead of
    /// scanning + sorting the group map.
    by_seq: BTreeMap<u64, WarpGroupId>,
    /// Live groups with exactly one pending request, ordered by `seq`
    /// (WG-W's unit-group pre-drain pick).
    unit_by_seq: BTreeMap<u64, WarpGroupId>,
    /// Live groups holding a `remote_cap` entry, ordered by `seq` (WG-M):
    /// the bypass scores these for the cap counter even when they cannot
    /// schedule.
    capped_by_seq: BTreeMap<u64, WarpGroupId>,
    /// Per bank: row → pending-request tally (the MERB gate's index).
    row_tally: Vec<FnvHashMap<u32, RowTally>>,
    /// Route picks through the original scan-based implementations instead
    /// of the indexes — the differential-testing escape hatch. The indexes
    /// are still maintained; they are just not consulted.
    reference_picks: bool,
    /// Reusable pick-path scratch (avoids per-pick allocation).
    scratch_ids: Vec<WarpGroupId>,
    /// Stats: MERB substitutions performed (row-hits inserted before a
    /// gated row-miss).
    pub merb_substitutions: u64,
    /// Stats: unit-group priority grants under imminent drain.
    pub wgw_priority_grants: u64,
    /// Stats: groups selected by the SJF rule.
    pub groups_selected: u64,
    /// Stats: coordination messages that lowered a local score.
    pub coord_cap_applied: u64,
    /// Groups flagged as shared by multiple warps (WG-S, Section VIII).
    shared: FnvHashSet<WarpGroupId>,
    /// Stats: selections where sharing broke the tie.
    pub shared_promotions: u64,
}

impl WarpGroupPolicy {
    pub fn new(flags: WgFlags, name: &'static str, num_banks: usize) -> Self {
        Self::with_age_threshold(flags, name, num_banks, 12_000)
    }

    /// Construct with an explicit starvation threshold (cycles).
    pub fn with_age_threshold(
        flags: WgFlags,
        name: &'static str,
        num_banks: usize,
        age_threshold: Cycle,
    ) -> Self {
        Self {
            flags,
            name,
            age_threshold,
            groups: FnvHashMap::default(),
            bank_count: vec![0; num_banks],
            total: 0,
            seq: 0,
            active: None,
            remote_cap: FnvHashMap::default(),
            coord_out: Vec::new(),
            scratch: vec![0; num_banks.max(48)],
            merb_substitutions: 0,
            wgw_priority_grants: 0,
            groups_selected: 0,
            coord_cap_applied: 0,
            shared: FnvHashSet::default(),
            shared_promotions: 0,
            by_seq: BTreeMap::new(),
            unit_by_seq: BTreeMap::new(),
            capped_by_seq: BTreeMap::new(),
            row_tally: vec![FnvHashMap::default(); num_banks],
            reference_picks: false,
            scratch_ids: Vec::new(),
        }
    }

    pub fn flags(&self) -> WgFlags {
        self.flags
    }

    /// Route picks through the original scan-based paths (differential
    /// testing only — see DESIGN.md §13).
    pub fn set_reference_picks(&mut self, on: bool) {
        self.reference_picks = on;
    }

    /// Internal invariant check (tests): the incremental indexes must
    /// describe exactly the same pending state as the group map.
    #[cfg(test)]
    fn check_index_invariants(&self) {
        assert_eq!(self.by_seq.len(), self.groups.len());
        for (seq, wg) in &self.by_seq {
            assert_eq!(self.groups[wg].seq, *seq);
        }
        for (seq, wg) in &self.unit_by_seq {
            assert_eq!(self.groups[wg].reqs.len(), 1, "unit index stale");
            assert_eq!(self.groups[wg].seq, *seq);
        }
        for (wg, e) in &self.groups {
            if e.reqs.len() == 1 {
                assert_eq!(self.unit_by_seq.get(&e.seq), Some(wg));
            }
            if self.remote_cap.contains_key(wg) {
                assert_eq!(self.capped_by_seq.get(&e.seq), Some(wg));
            }
        }
        for (seq, wg) in &self.capped_by_seq {
            assert_eq!(self.groups[wg].seq, *seq, "capped index stale");
            assert!(self.remote_cap.contains_key(wg));
        }
        let mut want: std::collections::BTreeMap<(usize, u32, u64), u32> = Default::default();
        for (wg, e) in &self.groups {
            for r in &e.reqs {
                *want
                    .entry((r.decoded.bank.0 as usize, r.decoded.row, e.seq))
                    .or_insert(0) += 1;
                assert_eq!(
                    self.row_tally[r.decoded.bank.0 as usize]
                        .get(&r.decoded.row)
                        .and_then(|t| t.by_seq.get(&e.seq))
                        .map(|(w, _)| w),
                    Some(wg)
                );
            }
        }
        let mut have = 0usize;
        for (b, per_row) in self.row_tally.iter().enumerate() {
            for (row, t) in per_row {
                assert!(t.count > 0, "empty tally retained");
                let mut sum = 0;
                for (seq, (_, c)) in &t.by_seq {
                    assert!(*c > 0);
                    assert_eq!(want.get(&(b, *row, *seq)), Some(c));
                    sum += c;
                }
                assert_eq!(t.count, sum);
                have += t.by_seq.len();
            }
        }
        assert_eq!(have, want.len());
    }

    fn take_req(&mut self, wg: WarpGroupId, idx: usize) -> MemRequest {
        let entry = self.groups.get_mut(&wg).expect("group exists");
        let seq = entry.seq;
        let r = entry.reqs.swap_remove(idx);
        let left = entry.reqs.len();
        self.bank_count[r.decoded.bank.0 as usize] -= 1;
        self.total -= 1;
        self.untally(&r, seq);
        match left {
            0 => {
                self.groups.remove(&wg);
                self.remote_cap.remove(&wg);
                self.shared.remove(&wg);
                self.by_seq.remove(&seq);
                self.unit_by_seq.remove(&seq);
                self.capped_by_seq.remove(&seq);
                if self.active == Some(wg) {
                    self.active = None;
                }
            }
            1 => {
                self.unit_by_seq.insert(seq, wg);
            }
            _ => {}
        }
        r
    }

    /// Remove one request's contribution from its `(bank, row)` tally.
    fn untally(&mut self, r: &MemRequest, seq: u64) {
        let per_row = &mut self.row_tally[r.decoded.bank.0 as usize];
        let t = per_row
            .get_mut(&r.decoded.row)
            .expect("tally exists for pending request");
        t.count -= 1;
        if t.count == 0 {
            per_row.remove(&r.decoded.row);
            return;
        }
        let c = t.by_seq.get_mut(&seq).expect("group share exists");
        c.1 -= 1;
        if c.1 == 0 {
            t.by_seq.remove(&seq);
        }
    }

    /// Effective score of a group: Bank-Table score, capped by the best
    /// remote score received for it (WG-M). The boolean says whether the
    /// cap engaged — capped groups (already in service at another
    /// controller) win score ties, finishing the warp instead of starting
    /// a new one (the intent of Section IV-C).
    fn effective_score(&mut self, wg: WarpGroupId, view: &PolicyView<'_>) -> (GroupScore, bool) {
        let cap = if self.flags.coordinate {
            self.remote_cap.get(&wg).copied()
        } else {
            None
        };
        capped_score(
            &self.groups[&wg].reqs,
            cap,
            view,
            &mut self.scratch,
            &mut self.coord_cap_applied,
        )
    }

    /// Select the best complete group by bank-aware SJF; fall back to the
    /// oldest group if none is complete (prevents queue-full livelock).
    ///
    /// Every complete group is scored (never short-circuited): the score
    /// evaluation has an observable side effect — `coord_cap_applied`
    /// counts every engagement of the WG-M remote cap, and that counter is
    /// part of `RunResult` — so the candidate *set* is bit-exactness
    /// contract, not an implementation detail. The selection itself is a
    /// strict total order ending in the unique `seq`, so evaluation order
    /// cannot change the winner.
    fn select_group(&mut self, view: &PolicyView<'_>) -> Option<WarpGroupId> {
        // Ordering: lowest score; ties -> shared groups (WG-S), then
        // remotely-started groups, then most row hits, then oldest.
        let mut best: Option<(GroupScore, bool, bool, u64, WarpGroupId)> = None;
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        if self.reference_picks {
            ids.extend(
                self.groups
                    .iter()
                    .filter(|(wg, _)| view.groups.is_complete(**wg))
                    .map(|(wg, _)| *wg),
            );
        } else {
            ids.extend(
                self.by_seq
                    .values()
                    .filter(|wg| view.groups.is_complete(**wg)),
            );
        }
        for &wg in &ids {
            let seq = self.groups[&wg].seq;
            let (s, capped) = self.effective_score(wg, view);
            let shared = self.flags.shared_aware && self.shared.contains(&wg);
            let better = match &best {
                None => true,
                Some((bs, bshared, bcap, bseq, _)) => {
                    if s.score != bs.score {
                        s.score < bs.score
                    } else if shared != *bshared {
                        shared
                    } else if capped != *bcap {
                        capped
                    } else if s.hits != bs.hits {
                        s.hits > bs.hits
                    } else {
                        seq < *bseq
                    }
                }
            };
            if better {
                best = Some((s, shared, capped, seq, wg));
            }
        }
        self.scratch_ids = ids;
        if let Some((score, shared, _, _, wg)) = best {
            if shared {
                self.shared_promotions += 1;
            }
            self.groups_selected += 1;
            if self.flags.coordinate {
                self.coord_out.push(CoordMsg {
                    wg,
                    score: score.score,
                });
            }
            return Some(wg);
        }
        // No complete group: fall back to the oldest partial group so the
        // read queue cannot clog with fragments.
        if self.reference_picks {
            self.groups
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(wg, _)| *wg)
        } else {
            self.by_seq.values().next().copied()
        }
    }

    /// Pick the next request *within* the active group: row hits first
    /// (they stream immediately), then the miss on the least-loaded bank.
    fn pick_from_group(&mut self, wg: WarpGroupId, view: &PolicyView<'_>) -> Option<MemRequest> {
        let entry = self.groups.get(&wg)?;
        let idx = best_request(&entry.reqs, view)?;
        // WG-Bw: if the chosen request is a row-miss, the MERB gate may
        // substitute a row-hit from another group on the same bank.
        if self.flags.merb {
            let d = entry.reqs[idx].decoded;
            if !view.is_hit(&d) {
                let gate = if self.reference_picks {
                    self.merb_gate_reference(d.bank.0 as usize, view)
                } else {
                    self.merb_gate(d.bank.0 as usize, view)
                };
                if let Some((owg, oidx)) = gate {
                    self.merb_substitutions += 1;
                    return Some(self.take_req(owg, oidx));
                }
            }
        }
        Some(self.take_req(wg, idx))
    }

    /// The MERB gate (Section IV-D): a row-miss on `bank` must wait while
    /// the bank's row-hit counter is below MERB(banks-with-work) and row
    /// hits for the bank's open row are still pending — and, per the orphan
    /// control rule, while only one or two such hits remain even after the
    /// threshold is met. Returns the oldest substitute hit to schedule.
    ///
    /// Indexed: the `(bank, open-row)` tally answers "how many pending hits"
    /// and "which group is oldest" in one map lookup; only the oldest
    /// group's request list is then scanned for the substitute's position —
    /// the *first* matching index, the same within-group order the reference
    /// scan produces.
    fn merb_gate(&self, bank: usize, view: &PolicyView<'_>) -> Option<(WarpGroupId, usize)> {
        let snap = &view.banks[bank];
        let open_row = snap.last_scheduled_row?;
        let t = self.row_tally[bank].get(&open_row)?;
        debug_assert!(t.count > 0);
        let banks_with_work = view.banks_with_work(|b| self.bank_count[b] > 0);
        let threshold = view.merb.get(banks_with_work);
        let gate_closed = snap.hits_since_row_open < threshold;
        // Orphan control: never strand one or two row-hits behind a miss.
        let orphan = t.count <= 2;
        if gate_closed || orphan {
            let (_, &(wg, _)) = t.by_seq.first_key_value().expect("non-empty tally");
            let e = &self.groups[&wg];
            let i = e
                .reqs
                .iter()
                .position(|r| r.decoded.bank.0 as usize == bank && r.decoded.row == open_row)
                .expect("tallied request present in group");
            if view.headroom_ok(&e.reqs[i].decoded) {
                return Some((wg, i));
            }
        }
        None
    }

    /// Original scan-based MERB gate (kept for `reference_picks`
    /// differential testing; must stay behaviourally identical to
    /// [`Self::merb_gate`]).
    fn merb_gate_reference(
        &self,
        bank: usize,
        view: &PolicyView<'_>,
    ) -> Option<(WarpGroupId, usize)> {
        let snap = &view.banks[bank];
        let open_row = snap.last_scheduled_row?;
        // Find pending row-hits for this bank's open row across all groups.
        let mut oldest: Option<(u64, WarpGroupId, usize)> = None;
        let mut count = 0usize;
        for (wg, e) in self.groups.iter() {
            for (i, r) in e.reqs.iter().enumerate() {
                if r.decoded.bank.0 as usize == bank && r.decoded.row == open_row {
                    count += 1;
                    if oldest.map(|(s, _, _)| e.seq < s).unwrap_or(true) {
                        oldest = Some((e.seq, *wg, i));
                    }
                }
            }
        }
        if count == 0 {
            return None;
        }
        let banks_with_work = view.banks_with_work(|b| self.bank_count[b] > 0);
        let threshold = view.merb.get(banks_with_work);
        let gate_closed = snap.hits_since_row_open < threshold;
        let orphan = count <= 2;
        if gate_closed || orphan {
            let (_, wg, i) = oldest.unwrap();
            if view.headroom_ok(&self.groups[&wg].reqs[i].decoded) {
                return Some((wg, i));
            }
        }
        None
    }

    /// The active group cannot schedule anything (its banks' command queues
    /// are full). Pull one schedulable request from the lowest-score other
    /// group rather than idling banks.
    ///
    /// Candidates: complete non-active groups (incomplete ones only when no
    /// complete group exists — the tie-break the
    /// `bypass_prefers_complete_groups_over_better_scored_incomplete` test
    /// pins). The winner is the best-scored candidate holding a request that
    /// passes `headroom_ok`, the oldest on score ties: one walk of `by_seq`
    /// (already oldest-first) keeping the first strictly better candidate
    /// equals the reference's stable sort followed by its first-schedulable
    /// walk. Scoring has one observable side effect — the WG-M cap counter —
    /// so a candidate is scored only when that can matter: when it is
    /// schedulable, or when it holds a remote cap (`capped_by_seq`).
    ///
    /// Most calls find nothing (DESIGN.md §13), so a per-bank test runs
    /// first: when no bank could accept any request outside the active
    /// group, only the cap count remains to be done.
    fn pick_bypass(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        let active = self.active;
        let open = self.others_schedulable(view);
        if !open && self.capped_by_seq.is_empty() {
            return None;
        }
        let all = !self
            .by_seq
            .values()
            .any(|&wg| Some(wg) != active && view.groups.is_complete(wg));
        let candidate =
            |wg: WarpGroupId| Some(wg) != active && (all || view.groups.is_complete(wg));
        let schedulable = |e: &GroupEntry| e.reqs.iter().any(|r| view.headroom_ok(&r.decoded));
        // Capped candidates that cannot schedule are scored for the cap
        // counter alone; the schedulable ones are scored by the walk below.
        for &wg in self.capped_by_seq.values() {
            let e = &self.groups[&wg];
            if candidate(wg) && !(open && schedulable(e)) {
                capped_score(
                    &e.reqs,
                    self.remote_cap.get(&wg).copied(),
                    view,
                    &mut self.scratch,
                    &mut self.coord_cap_applied,
                );
            }
        }
        if !open {
            return None;
        }
        let mut best: Option<(GroupScore, WarpGroupId)> = None;
        for &wg in self.by_seq.values() {
            let e = &self.groups[&wg];
            if !schedulable(e) || !candidate(wg) {
                continue;
            }
            let (s, _) = capped_score(
                &e.reqs,
                self.remote_cap.get(&wg).copied(),
                view,
                &mut self.scratch,
                &mut self.coord_cap_applied,
            );
            if best.is_none_or(|(bs, _)| s.better_than(&bs)) {
                best = Some((s, wg));
            }
        }
        let (_, wg) = best?;
        let idx = best_request(&self.groups[&wg].reqs, view).expect("schedulable winner");
        Some(self.take_req(wg, idx))
    }

    /// Could any group other than the active one schedule a request now?
    /// Per bank (`headroom_ok`: 3 command slots for a miss, 1 for a hit):
    /// with room for a miss, any pending request outside the active group
    /// qualifies; with room for a hit only, a pending hit on the open row
    /// outside the active group does. `false` is exact: then every
    /// non-active request fails `headroom_ok`.
    fn others_schedulable(&self, view: &PolicyView<'_>) -> bool {
        let mine: &[MemRequest] = self
            .active
            .and_then(|wg| self.groups.get(&wg))
            .map_or(&[], |e| &e.reqs);
        view.banks.iter().enumerate().any(|(b, snap)| {
            let pending = self.bank_count[b];
            if pending == 0 || snap.headroom == 0 {
                return false;
            }
            if snap.headroom >= 3 {
                let own = mine.iter().filter(|r| r.decoded.bank.0 as usize == b);
                return pending > own.count();
            }
            let Some(row) = snap.last_scheduled_row else {
                return false;
            };
            let Some(t) = self.row_tally[b].get(&row) else {
                return false;
            };
            let own = mine
                .iter()
                .filter(|r| r.decoded.bank.0 as usize == b && r.decoded.row == row);
            t.count as usize > own.count()
        })
    }

    /// Original allocating scan-and-sort bypass (kept for `reference_picks`
    /// differential testing; must stay behaviourally identical to
    /// [`Self::pick_bypass`]).
    fn pick_bypass_reference(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        let active = self.active;
        let mut ids: Vec<WarpGroupId> = self
            .groups
            .iter()
            .filter(|(wg, _)| Some(**wg) != active && view.groups.is_complete(**wg))
            .map(|(wg, _)| *wg)
            .collect();
        if ids.is_empty() {
            ids = self
                .groups
                .keys()
                .filter(|wg| Some(**wg) != active)
                .copied()
                .collect();
        }
        ids.sort_unstable_by_key(|wg| self.groups[wg].seq);
        let mut scored: Vec<(GroupScore, WarpGroupId)> = ids
            .into_iter()
            .map(|wg| (self.effective_score(wg, view).0, wg))
            .collect();
        scored.sort_by(|a, b| {
            if a.0.better_than(&b.0) {
                std::cmp::Ordering::Less
            } else if b.0.better_than(&a.0) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        for (_, wg) in scored {
            let entry = &self.groups[&wg];
            let mut best: Option<(u32, usize)> = None;
            for (i, r) in entry.reqs.iter().enumerate() {
                if !view.headroom_ok(&r.decoded) {
                    continue;
                }
                let s = view.request_score(&r.decoded);
                if best.map(|(bs, _)| s < bs).unwrap_or(true) {
                    best = Some((s, i));
                }
            }
            if let Some((_, idx)) = best {
                return Some(self.take_req(wg, idx));
            }
        }
        None
    }

    /// WG-W (Section IV-E): under an imminent write drain, service groups
    /// with exactly one outstanding request first, regardless of score.
    ///
    /// Indexed: `unit_by_seq` holds exactly the single-request groups in
    /// seq order, so the oldest eligible one is the first entry passing the
    /// completeness + headroom filters (both seq-independent — iterating
    /// ascending and stopping at the first pass equals the reference's
    /// min-over-all).
    fn pick_unit_group(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        let mut found: Option<WarpGroupId> = None;
        for (_, &wg) in self.unit_by_seq.iter() {
            let e = &self.groups[&wg];
            debug_assert_eq!(e.reqs.len(), 1);
            if view.groups.is_complete(wg) && view.headroom_ok(&e.reqs[0].decoded) {
                found = Some(wg);
                break;
            }
        }
        let wg = found?;
        self.wgw_priority_grants += 1;
        Some(self.take_req(wg, 0))
    }

    /// Original scan-based unit-group pick (kept for `reference_picks`
    /// differential testing; must stay behaviourally identical to
    /// [`Self::pick_unit_group`]).
    fn pick_unit_group_reference(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        let mut best: Option<(u64, WarpGroupId)> = None;
        for (wg, e) in self.groups.iter() {
            if e.reqs.len() == 1
                && view.groups.is_complete(*wg)
                && view.headroom_ok(&e.reqs[0].decoded)
                && best.map(|(s, _)| e.seq < s).unwrap_or(true)
            {
                best = Some((e.seq, *wg));
            }
        }
        let (_, wg) = best?;
        self.wgw_priority_grants += 1;
        Some(self.take_req(wg, 0))
    }
}

/// Bank-Table score of a group's requests, capped by the best remote score
/// `cap` received for it (WG-M). The boolean says whether the cap engaged;
/// each engagement is counted in `applied` (`coord_cap_applied`).
fn capped_score(
    reqs: &[MemRequest],
    cap: Option<u32>,
    view: &PolicyView<'_>,
    scratch: &mut [u32],
    applied: &mut u64,
) -> (GroupScore, bool) {
    let mut s = group_score(reqs, view, scratch);
    match cap {
        Some(cap) if cap < s.score => {
            s.score = cap;
            *applied += 1;
            (s, true)
        }
        _ => (s, false),
    }
}

/// Index of the group's best schedulable request: the lowest Bank-Table
/// request score among those passing `headroom_ok`, the first on ties.
fn best_request(reqs: &[MemRequest], view: &PolicyView<'_>) -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for (i, r) in reqs.iter().enumerate() {
        if !view.headroom_ok(&r.decoded) {
            continue;
        }
        let s = view.request_score(&r.decoded);
        if best.is_none_or(|(bs, _)| s < bs) {
            best = Some((s, i));
        }
    }
    best.map(|(_, i)| i)
}

impl Policy for WarpGroupPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_arrival(&mut self, req: MemRequest, now: Cycle) {
        let bank = req.decoded.bank.0 as usize;
        let row = req.decoded.row;
        let wg = req.wg;
        self.bank_count[bank] += 1;
        self.total += 1;
        let seq = self.seq;
        let entry = self.groups.entry(wg).or_insert_with(|| GroupEntry {
            reqs: Vec::with_capacity(4),
            seq,
            first_arrival: now,
        });
        if entry.reqs.is_empty() {
            entry.seq = entry.seq.min(seq);
        }
        let gseq = entry.seq;
        entry.reqs.push(req);
        match entry.reqs.len() {
            1 => {
                self.by_seq.insert(gseq, wg);
                self.unit_by_seq.insert(gseq, wg);
                if self.remote_cap.contains_key(&wg) {
                    self.capped_by_seq.insert(gseq, wg);
                }
            }
            2 => {
                self.unit_by_seq.remove(&gseq);
            }
            _ => {}
        }
        let t = self.row_tally[bank].entry(row).or_default();
        t.count += 1;
        t.by_seq.entry(gseq).or_insert((wg, 0)).1 += 1;
        self.seq += 1;
    }

    fn pending(&self) -> usize {
        self.total
    }

    fn pick(&mut self, view: &PolicyView<'_>) -> Option<MemRequest> {
        if self.total == 0 {
            return None;
        }
        // Starvation guard: the oldest group past the age threshold
        // pre-empts the SJF order (and the active group). Indexed: `seq`
        // order is creation order and `first_arrival` is nondecreasing in
        // it, so the oldest group (first `by_seq` entry) is the *only* one
        // that can exceed the threshold first — one lookup replaces the
        // filtered min-scan.
        let aged = if self.reference_picks {
            self.groups
                .iter()
                .filter(|(_, e)| view.now.saturating_sub(e.first_arrival) > self.age_threshold)
                .min_by_key(|(_, e)| e.seq)
                .map(|(wg, _)| *wg)
        } else {
            self.by_seq.values().next().copied().filter(|wg| {
                view.now.saturating_sub(self.groups[wg].first_arrival) > self.age_threshold
            })
        };
        if let Some(wg) = aged {
            self.active = Some(wg);
            if let Some(r) = self.pick_from_group(wg, view) {
                return Some(r);
            }
        }
        // WG-W pre-drain hook.
        if self.flags.write_aware && view.drain_imminent() {
            let r = if self.reference_picks {
                self.pick_unit_group_reference(view)
            } else {
                self.pick_unit_group(view)
            };
            if let Some(r) = r {
                return Some(r);
            }
        }
        // Continue draining the active group.
        if let Some(wg) = self.active {
            if self.groups.contains_key(&wg) {
                if let Some(r) = self.pick_from_group(wg, view) {
                    return Some(r);
                }
                // The active group is blocked on command-queue headroom for
                // its banks. Never idle the transaction slot: pull one
                // schedulable request from the best other group so the
                // remaining banks keep streaming (the bandwidth-preserving
                // rule of Section IV-D's design discussion). The active
                // group resumes as soon as its banks free up.
                return if self.reference_picks {
                    self.pick_bypass_reference(view)
                } else {
                    self.pick_bypass(view)
                };
            }
            self.active = None;
        }
        // Select a new group.
        let wg = self.select_group(view)?;
        self.active = Some(wg);
        if let Some(r) = self.pick_from_group(wg, view) {
            return Some(r);
        }
        if self.reference_picks {
            self.pick_bypass_reference(view)
        } else {
            self.pick_bypass(view)
        }
    }

    fn remove_group(&mut self, wg: WarpGroupId) -> Vec<MemRequest> {
        let Some(entry) = self.groups.remove(&wg) else {
            return Vec::new();
        };
        self.remote_cap.remove(&wg);
        if self.active == Some(wg) {
            self.active = None;
        }
        self.by_seq.remove(&entry.seq);
        self.unit_by_seq.remove(&entry.seq);
        self.capped_by_seq.remove(&entry.seq);
        for r in &entry.reqs {
            self.bank_count[r.decoded.bank.0 as usize] -= 1;
            self.total -= 1;
            self.untally(r, entry.seq);
        }
        entry.reqs
    }

    fn on_shared(&mut self, wg: WarpGroupId) {
        if self.flags.shared_aware {
            self.shared.insert(wg);
        }
    }

    fn on_coord(&mut self, msg: CoordMsg, _now: Cycle) {
        if !self.flags.coordinate {
            return;
        }
        // Record the cap even when the group has not arrived here yet —
        // cross-channel skew makes that the common case: channel A selects
        // the group while its requests are still in flight toward us.
        let e = self.remote_cap.entry(msg.wg).or_insert(u32::MAX);
        *e = (*e).min(msg.score);
        if let Some(g) = self.groups.get(&msg.wg) {
            self.capped_by_seq.insert(g.seq, msg.wg);
        }
        // Bounded state: sweep entries for long-gone groups occasionally.
        if self.remote_cap.len() > 4 * self.groups.len() + 1024 {
            let groups = &self.groups;
            self.remote_cap.retain(|wg, _| groups.contains_key(wg));
        }
    }

    fn emit_coord(&mut self, out: &mut Vec<CoordMsg>) {
        out.append(&mut self.coord_out);
    }

    fn has_pending_for_bank(&self, bank: usize) -> bool {
        self.bank_count.get(bank).copied().unwrap_or(0) > 0
    }

    fn counters(&self) -> [u64; 4] {
        [
            self.groups_selected,
            self.merb_substitutions,
            self.wgw_priority_grants,
            self.coord_cap_applied,
        ]
    }
}

/// Build any scheduler (baseline or warp-aware) for `kind`.
pub fn make_policy(kind: SchedulerKind, mem: &MemConfig) -> Box<dyn Policy> {
    if let Some(p) = ldsim_memctrl::make_baseline_policy(kind, mem) {
        return p;
    }
    let (flags, name) = WgFlags::for_kind(kind).expect("WG-family kind");
    let mut p = WarpGroupPolicy::with_age_threshold(
        flags,
        name,
        mem.banks_per_channel,
        mem.gmc_age_threshold,
    );
    p.set_reference_picks(mem.reference_picks);
    Box::new(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldsim_gddr5::MerbTable;
    use ldsim_memctrl::{BankSnapshot, GroupTracker};
    use ldsim_types::addr::DecodedAddr;
    use ldsim_types::clock::ClockDomain;
    use ldsim_types::config::TimingParams;
    use ldsim_types::ids::{BankId, ChannelId, GlobalWarpId, RequestId};
    use ldsim_types::req::ReqKind;

    struct Fix {
        banks: Vec<BankSnapshot>,
        groups: GroupTracker,
        merb: MerbTable,
        write_q_len: usize,
        next_id: u64,
    }

    impl Fix {
        fn new() -> Self {
            Self {
                banks: vec![
                    BankSnapshot {
                        headroom: 8,
                        ..Default::default()
                    };
                    16
                ],
                groups: GroupTracker::default(),
                merb: MerbTable::from_timing(&TimingParams::default(), ClockDomain::GDDR5, 16),
                write_q_len: 0,
                next_id: 0,
            }
        }

        fn view(&self) -> PolicyView<'_> {
            PolicyView {
                now: 0,
                banks: &self.banks,
                groups: &self.groups,
                write_q_len: self.write_q_len,
                write_hi: 32,
                wgw_margin: 8,
                merb: &self.merb,
            }
        }

        fn req(&mut self, bank: u8, row: u32, wg: WarpGroupId, size: u16) -> MemRequest {
            self.next_id += 1;
            MemRequest {
                id: RequestId(self.next_id),
                kind: ReqKind::Read,
                line_addr: self.next_id,
                decoded: DecodedAddr {
                    channel: ChannelId(0),
                    bank: BankId(bank),
                    bank_group: bank / 4,
                    row,
                    col: 0,
                },
                wg,
                last_of_group: false,
                group_size_on_channel: size,
                issue_cycle: 0,
                arrival_cycle: 0,
            }
        }

        /// Register arrival with the tracker AND the policy.
        fn feed(&mut self, p: &mut WarpGroupPolicy, r: MemRequest) {
            self.groups.on_arrival(&r);
            p.on_arrival(r, 0);
        }
    }

    fn wg(sm: u16, warp: u16, serial: u32) -> WarpGroupId {
        WarpGroupId::new(GlobalWarpId::new(sm, warp), serial)
    }

    fn plain_wg() -> WarpGroupPolicy {
        WarpGroupPolicy::new(WgFlags::default(), "WG", 16)
    }

    #[test]
    fn shortest_group_first_and_drained_as_unit() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        // Long group: 3 misses on bank 0 (stacked -> score 9).
        let ga = wg(0, 0, 0);
        for row in 0..3 {
            let r = f.req(0, row, ga, 3);
            f.feed(&mut p, r);
        }
        // Short group: 1 miss on idle bank 5 (score 3) — arrives later.
        let gb = wg(0, 1, 0);
        let r = f.req(5, 7, gb, 1);
        let short_id = r.id;
        f.feed(&mut p, r);
        let v = f.view();
        let first = p.pick(&v).unwrap();
        assert_eq!(first.id, short_id, "shortest job must go first");
        // The long group then drains contiguously.
        for _ in 0..3 {
            let r = p.pick(&f.view()).unwrap();
            assert_eq!(r.wg, ga);
        }
        assert_eq!(p.pending(), 0);
        assert_eq!(p.groups_selected, 2);
    }

    #[test]
    fn incomplete_groups_are_not_selected() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        let ga = wg(0, 0, 0);
        // Group expects 2 requests; only 1 arrived.
        let r = f.req(0, 1, ga, 2);
        f.feed(&mut p, r);
        let gb = wg(0, 1, 0);
        let r = f.req(1, 1, gb, 1);
        let complete_id = r.id;
        f.feed(&mut p, r);
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().id, complete_id);
    }

    #[test]
    fn fallback_picks_partial_group_when_none_complete() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        let ga = wg(0, 0, 0);
        let r = f.req(0, 1, ga, 5);
        f.feed(&mut p, r);
        let v = f.view();
        assert!(p.pick(&v).is_some(), "fragment fallback must make progress");
    }

    #[test]
    fn tie_breaks_toward_more_row_hits() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        f.banks[2].last_scheduled_row = Some(4);
        // Group A: one miss (score 3, 0 hits).
        let ga = wg(0, 0, 0);
        let r = f.req(0, 9, ga, 1);
        f.feed(&mut p, r);
        // Group B: three stacked hits (score 3, 3 hits).
        let gb = wg(0, 1, 0);
        for _ in 0..3 {
            let r = f.req(2, 4, gb, 3);
            f.feed(&mut p, r);
        }
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().wg, gb, "hits win the score tie");
    }

    #[test]
    fn coordination_caps_local_score() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: false,
                write_aware: false,
                shared_aware: false,
            },
            "WG-M",
            16,
        );
        // Group A: expensive locally (score 9).
        let ga = wg(0, 0, 0);
        for row in 0..3 {
            let r = f.req(0, row, ga, 3);
            f.feed(&mut p, r);
        }
        // Group B: cheap locally (score 3).
        let gb = wg(0, 1, 0);
        let r = f.req(5, 7, gb, 1);
        f.feed(&mut p, r);
        // A remote controller reports group A already being serviced with
        // score 1 -> local cap prioritises it past B.
        p.on_coord(CoordMsg { wg: ga, score: 1 }, 0);
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().wg, ga);
        assert!(p.coord_cap_applied > 0);
    }

    #[test]
    fn coordination_ignored_without_flag() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        let ga = wg(0, 0, 0);
        for row in 0..3 {
            let r = f.req(0, row, ga, 3);
            f.feed(&mut p, r);
        }
        let gb = wg(0, 1, 0);
        let r = f.req(5, 7, gb, 1);
        let id_b = r.id;
        f.feed(&mut p, r);
        p.on_coord(CoordMsg { wg: ga, score: 1 }, 0);
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().id, id_b, "WG has no coordination");
    }

    #[test]
    fn selection_emits_coord_message() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: false,
                write_aware: false,
                shared_aware: false,
            },
            "WG-M",
            16,
        );
        let ga = wg(3, 4, 5);
        let r = f.req(1, 1, ga, 1);
        f.feed(&mut p, r);
        let v = f.view();
        p.pick(&v).unwrap();
        let mut out = Vec::new();
        p.emit_coord(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].wg, ga);
        assert_eq!(out[0].score, 3);
    }

    #[test]
    fn merb_gate_substitutes_row_hits_for_gated_miss() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: true,
                write_aware: false,
                shared_aware: false,
            },
            "WG-Bw",
            16,
        );
        // Bank 0 has row 5 open with only 1 hit serviced so far; MERB for a
        // single busy bank is 31, so a miss is firmly gated.
        f.banks[0].last_scheduled_row = Some(5);
        f.banks[0].hits_since_row_open = 1;
        f.banks[0].busy = true;
        // Selected group: one miss on bank 0 (different row). With the
        // bank's queue score of 6 it scores 9.
        f.banks[0].queue_score = 6;
        let gm = wg(0, 0, 0);
        let r = f.req(0, 9, gm, 1);
        f.feed(&mut p, r);
        // Another group holds 4 hits for the open row, stacking to 10 — so
        // the miss group wins selection, then hits the MERB gate.
        let gh = wg(0, 1, 0);
        for _ in 0..4 {
            let r = f.req(0, 5, gh, 4);
            f.feed(&mut p, r);
        }
        let v = f.view();
        let first = p.pick(&v).unwrap();
        assert_eq!(first.wg, gh, "MERB gate must substitute a pending hit");
        assert_eq!(first.decoded.row, 5);
        assert!(p.merb_substitutions > 0);
    }

    #[test]
    fn merb_orphan_control_flushes_last_two_hits() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: false,
                merb: true,
                write_aware: false,
                shared_aware: false,
            },
            "WG-Bw",
            16,
        );
        // Gate is formally open (counter 31 >= any MERB), but 2 hits remain:
        // orphan control services them before the miss.
        f.banks[0].last_scheduled_row = Some(5);
        f.banks[0].hits_since_row_open = 31;
        f.banks[0].busy = true;
        f.banks[0].queue_score = 6;
        let gm = wg(0, 0, 0);
        let r = f.req(0, 9, gm, 1);
        f.feed(&mut p, r);
        let gh = wg(0, 1, 0);
        for _ in 0..2 {
            let r = f.req(0, 5, gh, 2);
            f.feed(&mut p, r);
        }
        let v = f.view();
        let first = p.pick(&v).unwrap();
        assert_eq!(first.decoded.row, 5, "orphan hits must not be stranded");
    }

    #[test]
    fn wgw_prioritises_unit_groups_before_drain() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: true,
                write_aware: true,
                shared_aware: false,
            },
            "WG-W",
            16,
        );
        // Expensive-but-short group would normally lose to a cheap long one;
        // with the write queue 25/32 (within margin 8), the unit group wins.
        f.banks[3].queue_score = 20;
        let unit = wg(0, 0, 0);
        let r = f.req(3, 1, unit, 1);
        let unit_id = r.id;
        f.feed(&mut p, r);
        f.banks[7].last_scheduled_row = Some(2);
        let cheap = wg(0, 1, 0);
        for _ in 0..2 {
            let r = f.req(7, 2, cheap, 2);
            f.feed(&mut p, r);
        }
        f.write_q_len = 25;
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().id, unit_id);
        assert!(p.wgw_priority_grants > 0);
        // Without drain pressure the cheap group goes first.
        f.write_q_len = 0;
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().wg, cheap);
    }

    #[test]
    fn remove_group_clears_all_state() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        let ga = wg(0, 0, 0);
        for row in 0..3 {
            let r = f.req(0, row, ga, 3);
            f.feed(&mut p, r);
        }
        let out = p.remove_group(ga);
        assert_eq!(out.len(), 3);
        assert_eq!(p.pending(), 0);
        assert!(!p.has_pending_for_bank(0));
    }

    #[test]
    fn shared_groups_win_score_ties_under_wg_s() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: false,
                write_aware: false,
                shared_aware: true,
            },
            "WG-S",
            16,
        );
        // Two identical-score groups; the second is flagged shared.
        let ga = wg(0, 0, 0);
        let r = f.req(0, 1, ga, 1);
        f.feed(&mut p, r);
        let gb = wg(0, 1, 0);
        let r = f.req(1, 1, gb, 1);
        f.feed(&mut p, r);
        Policy::on_shared(&mut p, gb);
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().wg, gb, "shared group breaks the tie");
        assert_eq!(p.shared_promotions, 1);
        // Without the flag, sharing notifications are ignored.
        let mut q = plain_wg();
        let r = f.req(0, 1, ga, 1);
        f.feed(&mut q, r);
        let r = f.req(1, 1, gb, 1);
        f.feed(&mut q, r);
        Policy::on_shared(&mut q, gb);
        let v = f.view();
        assert_eq!(
            q.pick(&v).unwrap().wg,
            ga,
            "WG ignores sharing (oldest wins)"
        );
    }

    #[test]
    fn factory_builds_every_kind() {
        let mem = MemConfig::default();
        for k in [
            SchedulerKind::Fcfs,
            SchedulerKind::FrFcfs,
            SchedulerKind::Gmc,
            SchedulerKind::Wafcfs,
            SchedulerKind::Sbwas { alpha_q: 2 },
            SchedulerKind::Wg,
            SchedulerKind::WgM,
            SchedulerKind::WgBw,
            SchedulerKind::WgW,
            SchedulerKind::WgShared,
            SchedulerKind::ZeroDivergence,
            SchedulerKind::ParBs,
            SchedulerKind::AtlasLite,
        ] {
            let p = make_policy(k, &mem);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn aging_guard_preempts_sjf() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::with_age_threshold(WgFlags::default(), "WG", 16, 100);
        // An expensive old group...
        f.banks[0].queue_score = 30;
        let old = wg(0, 0, 0);
        let r = f.req(0, 1, old, 1);
        let old_id = r.id;
        f.feed(&mut p, r);
        // ...and a cheap young one.
        let young = wg(0, 1, 0);
        let r = f.req(5, 7, young, 1);
        f.feed(&mut p, r);
        // Young wins under SJF at t=50 (below threshold)...
        let mut v = f.view();
        v.now = 50;
        assert_eq!(p.pick(&v).unwrap().wg, young);
        // ...but once the old group exceeds the age threshold it preempts.
        let r = f.req(5, 7, young, 1);
        f.feed(&mut p, r);
        let mut v = f.view();
        v.now = 500;
        assert_eq!(p.pick(&v).unwrap().id, old_id, "starvation guard");
    }

    #[test]
    fn bypass_pull_keeps_banks_busy_when_active_blocked() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        // Active group targets bank 0 only (cheap: its row is open); bank 0
        // then runs out of command-queue headroom; another group waits on
        // bank 3.
        f.banks[0].last_scheduled_row = Some(1);
        let ga = wg(0, 0, 0);
        for _ in 0..2 {
            let r = f.req(0, 1, ga, 2);
            f.feed(&mut p, r);
        }
        let gb = wg(0, 1, 0);
        let r = f.req(3, 9, gb, 1);
        let idb = r.id;
        f.feed(&mut p, r);
        // First pick selects ga (older, same score class) and takes one req.
        let first = p.pick(&f.view()).unwrap();
        assert_eq!(first.wg, ga);
        // Now bank 0 is full: the transaction slot must not idle.
        f.banks[0].headroom = 0;
        let second = p.pick(&f.view()).unwrap();
        assert_eq!(second.id, idb, "bypass must pull from another group");
        // Active group resumes once headroom returns.
        f.banks[0].headroom = 8;
        assert_eq!(p.pick(&f.view()).unwrap().wg, ga);
    }

    #[test]
    fn bypass_prefers_complete_groups_over_better_scored_incomplete() {
        // Pin the bypass tie-break order: incomplete groups are considered
        // only when NO complete group exists, even when an incomplete group
        // has a strictly better score. (The indexed reimplementation must
        // preserve this two-phase candidate set exactly.)
        let mut f = Fix::new();
        let mut p = plain_wg();
        // Active group: two cheap hits on bank 0.
        f.banks[0].last_scheduled_row = Some(1);
        let ga = wg(0, 0, 0);
        for _ in 0..2 {
            let r = f.req(0, 1, ga, 2);
            f.feed(&mut p, r);
        }
        // Complete group on a congested bank (score 23 = 20 queued + 3).
        f.banks[3].queue_score = 20;
        let gb = wg(0, 1, 0);
        let r = f.req(3, 9, gb, 1);
        let idb = r.id;
        f.feed(&mut p, r);
        // Incomplete group on an idle bank (score 3 — strictly better).
        let gc = wg(0, 2, 0);
        let r = f.req(4, 9, gc, 2); // expects 2 requests, only 1 arrived
        let idc = r.id;
        f.feed(&mut p, r);
        // Drain starts on ga, then bank 0 blocks: bypass must take the
        // COMPLETE group gb despite gc's better score.
        assert_eq!(p.pick(&f.view()).unwrap().wg, ga);
        f.banks[0].headroom = 0;
        assert_eq!(
            p.pick(&f.view()).unwrap().id,
            idb,
            "bypass must prefer complete groups regardless of score"
        );
        // With gb gone, only the incomplete gc remains: the fallback may now
        // (and must) pull from it rather than idle the transaction slot.
        assert_eq!(
            p.pick(&f.view()).unwrap().id,
            idc,
            "bypass falls back to incomplete groups only when none complete"
        );
    }

    #[test]
    fn counters_roundtrip() {
        let mut f = Fix::new();
        let mut p = WarpGroupPolicy::new(
            WgFlags {
                coordinate: true,
                merb: true,
                write_aware: true,
                shared_aware: false,
            },
            "WG-W",
            16,
        );
        let g = wg(0, 0, 0);
        let r = f.req(1, 1, g, 1);
        f.feed(&mut p, r);
        p.pick(&f.view()).unwrap();
        let c = Policy::counters(&p);
        assert_eq!(c[0], 1, "one group selected");
    }

    /// Seeded property test: drive an indexed policy and a
    /// `reference_picks` twin through the same random operation stream —
    /// arrivals, picks under randomly mutated bank snapshots, coordination,
    /// sharing, group removal, aging — for every combination of the four WG
    /// flags, and require identical picks, identical counters after every
    /// pick, and intact incremental indexes throughout.
    ///
    /// The second half of each stream is saturated: nine banks in ten have
    /// no command slot free, the regime of contended full-size runs, where
    /// the bypass mostly finds nothing (its per-bank early-out) and WG-M
    /// still counts cap engagements of the blocked candidates.
    #[test]
    fn indexed_picks_match_reference_scans_under_random_ops() {
        use ldsim_util::StdRng;
        let mut blocked_picks = 0u32;
        for combo in 0u8..16 {
            let flags = WgFlags {
                coordinate: combo & 1 != 0,
                merb: combo & 2 != 0,
                write_aware: combo & 4 != 0,
                shared_aware: combo & 8 != 0,
            };
            for seed in 0u64..3 {
                let mut rng = StdRng::seed_from_u64(0x1D3A ^ (combo as u64) << 8 ^ seed);
                let mut idx = WarpGroupPolicy::with_age_threshold(flags, "idx", 16, 500);
                let mut rf = WarpGroupPolicy::with_age_threshold(flags, "ref", 16, 500);
                rf.set_reference_picks(true);
                let mut f = Fix::new();
                let mut now: Cycle = 0;
                let mut live: Vec<WarpGroupId> = Vec::new();
                let mut serial = 0u32;
                for step in 0..1200 {
                    let saturated = step >= 600;
                    match rng.gen_range(0u32..100) {
                        // Arrivals: a fresh group, possibly left incomplete,
                        // possibly completed through upstream absorption.
                        0..=44 => {
                            serial += 1;
                            let g = wg(0, (serial % 7) as u16, serial);
                            let size = rng.gen_range(1u16..=4);
                            let arrive = rng.gen_range(1u16..=size);
                            for _ in 0..arrive {
                                let bank = rng.gen_range(0u8..16);
                                let row = rng.gen_range(0u32..4);
                                let r = f.req(bank, row, g, size);
                                f.groups.on_arrival(&r);
                                idx.on_arrival(r, now);
                                rf.on_arrival(r, now);
                            }
                            if arrive < size && rng.gen_bool(0.5) {
                                for _ in arrive..size {
                                    f.groups.on_absorbed(g, size);
                                }
                            }
                            live.push(g);
                        }
                        // Picks under a randomly perturbed bank view.
                        45..=79 => {
                            for b in 0..16 {
                                let s = &mut f.banks[b];
                                s.headroom = if saturated {
                                    if rng.gen_bool(0.9) {
                                        0
                                    } else {
                                        rng.gen_range(1usize..=8)
                                    }
                                } else if rng.gen_bool(0.2) {
                                    rng.gen_range(0usize..3)
                                } else {
                                    rng.gen_range(3usize..=8)
                                };
                                s.queue_score = rng.gen_range(0u32..30);
                                s.queue_len = 8 - s.headroom;
                                s.busy = s.queue_len > 0;
                                s.last_scheduled_row = if rng.gen_bool(0.6) {
                                    Some(rng.gen_range(0u32..4))
                                } else {
                                    None
                                };
                                s.hits_since_row_open = rng.gen_range(0u8..32);
                            }
                            f.write_q_len = rng.gen_range(0usize..32);
                            let mut v = f.view();
                            v.now = now;
                            let a = idx.pick(&v);
                            let b = rf.pick(&v);
                            assert_eq!(
                                a.as_ref().map(|r| (r.id, r.wg)),
                                b.as_ref().map(|r| (r.id, r.wg)),
                                "pick diverged: flags={flags:?} seed={seed} step={step}"
                            );
                            assert_eq!(
                                Policy::counters(&idx),
                                Policy::counters(&rf),
                                "counters diverged: flags={flags:?} seed={seed} step={step}"
                            );
                            assert_eq!(idx.shared_promotions, rf.shared_promotions);
                            if saturated && a.is_none() && idx.pending() > 0 {
                                blocked_picks += 1;
                            }
                        }
                        // WG-M coordination from a phantom remote controller.
                        80..=87 => {
                            if let Some(&g) = live.get(rng.gen_range(0usize..live.len().max(1))) {
                                let m = CoordMsg {
                                    wg: g,
                                    score: rng.gen_range(0u32..12),
                                };
                                idx.on_coord(m, now);
                                rf.on_coord(m, now);
                            }
                        }
                        // WG-S sharing notifications.
                        88..=91 => {
                            if let Some(&g) = live.get(rng.gen_range(0usize..live.len().max(1))) {
                                Policy::on_shared(&mut idx, g);
                                Policy::on_shared(&mut rf, g);
                            }
                        }
                        // Zero-divergence-style whole-group removal.
                        92..=94 => {
                            if let Some(&g) = live.get(rng.gen_range(0usize..live.len().max(1))) {
                                let a = idx.remove_group(g);
                                let b = rf.remove_group(g);
                                let ia: Vec<_> = a.iter().map(|r| r.id).collect();
                                let ib: Vec<_> = b.iter().map(|r| r.id).collect();
                                assert_eq!(ia, ib, "remove_group diverged");
                            }
                        }
                        // Time advances (starvation guard engagement).
                        _ => now += rng.gen_range(1u64..400),
                    }
                    assert_eq!(idx.pending(), rf.pending());
                    if step % 37 == 0 {
                        idx.check_index_invariants();
                        rf.check_index_invariants();
                    }
                }
                // Drain both to empty with full headroom and compare tallies.
                for b in 0..16 {
                    f.banks[b].headroom = 8;
                }
                let mut v = f.view();
                v.now = now;
                loop {
                    let a = idx.pick(&v);
                    let b = rf.pick(&v);
                    assert_eq!(
                        a.as_ref().map(|r| r.id),
                        b.as_ref().map(|r| r.id),
                        "drain pick diverged: flags={flags:?} seed={seed}"
                    );
                    assert_eq!(Policy::counters(&idx), Policy::counters(&rf));
                    assert_eq!(idx.shared_promotions, rf.shared_promotions);
                    if a.is_none() {
                        break;
                    }
                }
                idx.check_index_invariants();
            }
        }
        assert!(
            blocked_picks > 100,
            "saturated phase too idle: {blocked_picks}"
        );
    }

    #[test]
    fn headroom_is_respected_within_group() {
        let mut f = Fix::new();
        let mut p = plain_wg();
        let ga = wg(0, 0, 0);
        // Two requests: bank 0 has no headroom, bank 1 full headroom.
        let r = f.req(0, 1, ga, 2);
        f.feed(&mut p, r);
        let r = f.req(1, 1, ga, 2);
        let ok_id = r.id;
        f.feed(&mut p, r);
        f.banks[0].headroom = 0;
        let v = f.view();
        assert_eq!(p.pick(&v).unwrap().id, ok_id);
        // The remaining request cannot be scheduled at all right now.
        let v = f.view();
        assert!(p.pick(&v).is_none());
        assert_eq!(p.pending(), 1);
    }
}
