//! The metric catalogue, the output checks, and the modelled-design counts.

use ldsim_system::sweep::Cell;
use ldsim_system::{RunResult, ENGINE_SALT};
use ldsim_types::config::SchedulerKind;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reported by every workload's untraced run and bounded in
    /// `BENCHMARK.json`.
    EndToEnd,
    /// Reported by the untraced runs of the workloads that have it;
    /// bounded only by `compare`.
    Workload,
    /// Reported by traced runs (`per_layer` in `BENCHMARK.json`); no bound.
    Layer,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Largest tolerated worsening of the median, as a share of the
    /// baseline median (end-to-end and workload metrics).
    pub bound: f64,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    m(name, unit, Better::Lower, Kind::Layer, 0.0)
}

const fn layer_up(name: &'static str, unit: &'static str) -> MetricDef {
    m(name, unit, Better::Higher, Kind::Layer, 0.0)
}

use Better::{Higher, Lower};
use Kind::{EndToEnd, Workload};

/// Bounds: host time on a shared machine drifts by 10–30% over minutes
/// (measured; see README.md), so timing bounds sit near the 0.25 ceiling,
/// with `setup_s` keeping the largest so that work moved into set-up shows.
pub const CATALOGUE: &[MetricDef] = &[
    m("wall_s", "s", Lower, EndToEnd, 0.24),
    m("sim_minsn_per_s", "Minsn/s", Higher, EndToEnd, 0.24),
    m("cpu_s", "s", Lower, EndToEnd, 0.24),
    m("peak_rss_mb", "MB", Lower, EndToEnd, 0.2),
    m("setup_s", "s", Lower, EndToEnd, 0.25),
    m("longest_cell_s", "s", Lower, Workload, 0.24),
    m("warm_reload_s", "s", Lower, Workload, 0.25),
    m("job_p50_s", "s", Lower, Workload, 0.25),
    m("job_tail_s", "s", Lower, Workload, 0.25),
    m("first_row_p50_s", "s", Lower, Workload, 0.25),
    m("jobs_per_s", "1/s", Higher, Workload, 0.24),
    m("failed_frac", "frac", Lower, Workload, 0.0),
    layer("workloads.gen_s", "s"),
    layer("sim.build_s", "s"),
    layer("sim.run_s.gmc", "s"),
    layer("sim.run_s.sbwas", "s"),
    layer("sim.run_s.wg", "s"),
    layer("sim.run_s.other", "s"),
    layer_up("sim.kcycles_per_s.gmc", "kcycles/s"),
    layer_up("sim.kcycles_per_s.sbwas", "kcycles/s"),
    layer_up("sim.kcycles_per_s.wg", "kcycles/s"),
    layer_up("sim.kcycles_per_s.other", "kcycles/s"),
    layer("sim.cell_s.p50", "s"),
    layer("sim.cell_s.max", "s"),
    layer("partition.barriers_per_kcycle", "1/kcycle"),
    layer("partition.mean_window_cycles", "cycles"),
    layer_up("partition.pool_speedup", "x"),
    layer("sweep.key_s", "s"),
    layer("sweep.idle_core_s", "s"),
    layer("shard.append_s", "s"),
    layer("shard.rows_appended", "count"),
    layer("shard.load_s", "s"),
    layer("shard.rows_parsed", "count"),
    layer("shard.bytes", "bytes"),
    layer("render.s", "s"),
    layer("exec.start_s", "s"),
    layer("exec.submit_s", "s"),
    layer_up("exec.cached_frac", "frac"),
    layer("exec.shared_frac", "frac"),
    layer("exec.queued_frac", "frac"),
    layer("exec.rejected", "count"),
    layer("http.health_rtt_s", "s"),
    layer("trace.overhead_frac", "frac"),
    layer("sim.cycles", "cycles"),
    layer("sim.instructions", "count"),
    layer("gpu.l1_hit_rate", "frac"),
    layer("gpu.l2_hit_rate", "frac"),
    layer("gpu.sm_mem_idle_frac", "frac"),
    layer("gddr5.dram_reads", "count"),
    layer("gddr5.dram_writes", "count"),
    layer("gddr5.row_hit_rate", "frac"),
    layer("gddr5.bus_util", "frac"),
    layer("memctrl.groups_selected", "count"),
    layer("memctrl.merb_subs", "count"),
    layer("memctrl.wgw_grants", "count"),
    layer("memctrl.coord_caps", "count"),
];

/// The modelled-design counts: deterministic per (workload, seed, salt).
pub const MODEL_COUNTS: &[&str] = &[
    "sim.cycles",
    "sim.instructions",
    "gpu.l1_hit_rate",
    "gpu.l2_hit_rate",
    "gpu.sm_mem_idle_frac",
    "gddr5.dram_reads",
    "gddr5.dram_writes",
    "gddr5.row_hit_rate",
    "gddr5.bus_util",
    "memctrl.groups_selected",
    "memctrl.merb_subs",
    "memctrl.wgw_grants",
    "memctrl.coord_caps",
];

pub fn def(name: &str) -> &'static MetricDef {
    CATALOGUE
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"))
}

pub fn of_kind(kind: Kind) -> impl Iterator<Item = &'static MetricDef> {
    CATALOGUE.iter().filter(move |d| d.kind == kind)
}

/// The scheduler families `sim.run_s.*` splits host time by.
pub fn family(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Gmc => "gmc",
        SchedulerKind::Sbwas { .. } => "sbwas",
        SchedulerKind::Wg
        | SchedulerKind::WgM
        | SchedulerKind::WgBw
        | SchedulerKind::WgW
        | SchedulerKind::WgShared => "wg",
        _ => "other",
    }
}

pub const FAMILIES: [&str; 4] = ["gmc", "sbwas", "wg", "other"];

/// Sums (counts) and cell means (rates) of the modelled-design statistics.
pub fn model_counts(results: &[&RunResult]) -> Vec<(&'static str, f64)> {
    let n = results.len().max(1) as f64;
    let sum = |f: &dyn Fn(&RunResult) -> f64| results.iter().map(|r| f(r)).sum::<f64>();
    let mean = |f: &dyn Fn(&RunResult) -> f64| sum(f) / n;
    let pc = |i: usize| sum(&|r| r.policy_counters[i] as f64);
    vec![
        ("sim.cycles", sum(&|r| r.cycles as f64)),
        ("sim.instructions", sum(&|r| r.instructions as f64)),
        ("gpu.l1_hit_rate", mean(&|r| r.l1_hit_rate)),
        ("gpu.l2_hit_rate", mean(&|r| r.l2_hit_rate)),
        ("gpu.sm_mem_idle_frac", mean(&|r| r.sm_mem_idle_frac)),
        ("gddr5.dram_reads", sum(&|r| r.dram_reads as f64)),
        ("gddr5.dram_writes", sum(&|r| r.dram_writes as f64)),
        ("gddr5.row_hit_rate", mean(&|r| r.row_hit_rate)),
        ("gddr5.bus_util", mean(&|r| r.bw_utilization)),
        ("memctrl.groups_selected", pc(0)),
        ("memctrl.merb_subs", pc(1)),
        ("memctrl.wgw_grants", pc(2)),
        ("memctrl.coord_caps", pc(3)),
    ]
}

/// Digest of a cell's serialized `RunResult`.
pub fn digest(r: &RunResult) -> u64 {
    ldsim_util::hash::fnv64(r.to_json().as_bytes())
}

/// What identifies a cell's simulation whatever the configuration defaults
/// are: benchmark, scheduler with its parameters, tweak, scale and seed.
/// (A cell key also hashes the resolved configuration, so it changes with
/// every new default and cannot anchor a pinned result.)
pub fn label(c: &Cell) -> String {
    format!(
        "{}/{:?}/{:?}/{:?}/seed {}",
        c.bench, c.kind, c.tweak, c.scale, c.seed
    )
}

/// One digest over a workload's cells: every (label, result digest) pair,
/// in label order.
pub fn set_digest(cells: &[(Cell, &RunResult)]) -> u64 {
    let mut rows: Vec<String> = cells
        .iter()
        .map(|(c, r)| format!("{}\t{:016x}\n", label(c), digest(r)))
        .collect();
    rows.sort_unstable();
    rows.dedup();
    ldsim_util::hash::fnv64(rows.concat().as_bytes())
}

/// Seeds whose digests `digests.tsv` must hold under the current salt: a
/// run on one of them with no pinned row fails.
pub fn is_pinned_seed(seed: u64) -> bool {
    seed <= 15 || seed == crate::HELD_OUT_SEED
}

/// The pinned digests: `salt<TAB>workload<TAB>seed<TAB>digest<TAB>cells`
/// per line.
const PINNED: &str = include_str!("../digests.tsv");

/// One pinned row.
pub fn pinned_row(workload: &str, seed: u64, cells: &[(Cell, &RunResult)]) -> String {
    format!(
        "{ENGINE_SALT}\t{workload}\t{seed}\t{:016x}\t{}",
        set_digest(cells),
        cells.len()
    )
}

/// Every check a run makes, counted toward `attempted` / `failed`.
pub struct Checker {
    /// (workload, seed) → digest, for the current salt.
    pinned: HashMap<(String, u64), u64>,
    /// Label → the first result digest seen for it in this run.
    seen: HashMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Comparisons made against the pinned table.
    pub pinned_hits: u64,
    pub errors: Vec<String>,
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

impl Checker {
    pub fn new() -> Self {
        Self {
            pinned: parse_pinned(PINNED, ENGINE_SALT),
            seen: HashMap::new(),
            attempted: 0,
            failed: 0,
            pinned_hits: 0,
            errors: Vec::new(),
        }
    }

    /// Count one check; record a failure with its description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count a failure that was not a comparison (a panic, a refused job).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// A cell's result must match every earlier result for the same cell
    /// in this run.
    pub fn cell(&mut self, c: &Cell, r: &RunResult) {
        let (label, d) = (label(c), digest(r));
        let first = *self.seen.entry(label.clone()).or_insert(d);
        self.check(d == first, || {
            format!("{label}: result digest {d:016x} differs from this run's first {first:016x}")
        });
    }

    /// The digest of all of a workload's cells must match the pinned one.
    /// On a pinned seed a missing row fails too, so neither a new salt nor
    /// a changed cell set can skip the comparison without notice.
    pub fn pinned(&mut self, workload: &str, seed: u64, cells: &[(Cell, &RunResult)]) {
        let got = set_digest(cells);
        match self.pinned.get(&(workload.to_string(), seed)).copied() {
            Some(want) => {
                self.pinned_hits += 1;
                self.check(got == want, || {
                    format!(
                        "{workload} seed {seed}: digest {got:016x} of {} cells != pinned \
                         {want:016x} (re-pin with `pin` only if the change is intended)",
                        cells.len()
                    )
                });
            }
            None if is_pinned_seed(seed) => self.fail(format!(
                "{workload} seed {seed}: no pinned digest under salt {ENGINE_SALT} \
                 (re-pin with `pin`)"
            )),
            None => {}
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn parse_pinned(text: &str, salt: &str) -> HashMap<(String, u64), u64> {
    text.lines()
        .filter_map(|l| {
            let mut f = l.split('\t');
            let (s, workload, seed, d) = (f.next()?, f.next()?, f.next()?, f.next()?);
            (s == salt).then_some(())?;
            Some((
                (workload.to_string(), seed.parse().ok()?),
                u64::from_str_radix(d, 16).ok()?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = CATALOGUE.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOGUE.len());
        for d in CATALOGUE {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for name in MODEL_COUNTS {
            assert_eq!(def(name).kind, Kind::Layer);
        }
    }

    /// `BENCHMARK.json` (two directories up from this file) must list
    /// exactly the catalogue's end-to-end and per-layer metrics, with the
    /// same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let dir = |b: Better| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };
        for d in of_kind(Kind::EndToEnd) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                dir(d.better),
                d.bound
            );
            assert!(text.contains(&entry), "missing end_to_end entry {entry}");
        }
        for d in of_kind(Kind::Layer) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                dir(d.better)
            );
            assert!(text.contains(&entry), "missing per_layer entry {entry}");
        }
        let listed = text.matches("\"name\":").count();
        let workloads = text.matches("\"why\":").count();
        assert_eq!(
            listed - workloads,
            of_kind(Kind::EndToEnd).count() + of_kind(Kind::Layer).count()
        );
    }

    #[test]
    fn pinned_rows_filter_by_salt() {
        let text = "s1\tsweep-full-cold\t3\t0000000000000001\t55\n\
                    s2\tsweep-full-cold\t3\t0000000000000002\t55\n\
                    torn line\n";
        let p = parse_pinned(text, "s2");
        assert_eq!(p.len(), 1);
        assert_eq!(p[&("sweep-full-cold".to_string(), 3)], 2);
    }

    fn tiny(bench: &'static str, kind: SchedulerKind) -> (Cell, RunResult) {
        let c = Cell::new(bench, ldsim_workloads::Scale::Tiny, 1, kind);
        (c, ldsim_system::run_one(bench, c.scale, c.seed, kind))
    }

    #[test]
    fn checker_counts_mismatches_against_earlier_results() {
        let mut ck = Checker::new();
        let (c, mut r) = tiny("bfs", SchedulerKind::Gmc);
        ck.cell(&c, &r);
        ck.cell(&c, &r);
        r.cycles += 1;
        ck.cell(&c, &r);
        assert_eq!((ck.attempted, ck.failed), (3, 1));
        assert!((ck.failed_frac() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pinned_check_fails_on_a_changed_result_and_on_a_missing_row() {
        let (a, ra) = tiny("bfs", SchedulerKind::Gmc);
        let (b, rb) = tiny("bfs", SchedulerKind::WgW);
        let row = pinned_row("w", 3, &[(a, &ra), (b, &rb)]);
        // Label order, not call order, decides the digest.
        assert_eq!(row, pinned_row("w", 3, &[(b, &rb), (a, &ra)]));
        let mut ck = Checker::new();
        ck.pinned = parse_pinned(&row, ENGINE_SALT);
        ck.pinned("w", 3, &[(b, &rb), (a, &ra)]);
        assert_eq!((ck.attempted, ck.failed, ck.pinned_hits), (1, 0, 1));
        let mut changed = rb.clone();
        changed.cycles += 1;
        ck.pinned("w", 3, &[(a, &ra), (b, &changed)]);
        assert_eq!(ck.failed, 1);
        // A pinned seed without a row fails; another seed is not compared.
        ck.pinned("w", 4, &[(a, &ra)]);
        assert_eq!(ck.failed, 2);
        ck.pinned("w", 100, &[(a, &ra)]);
        assert_eq!((ck.attempted, ck.failed), (2, 2));
    }
}
