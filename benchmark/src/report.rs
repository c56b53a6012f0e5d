//! Results: the per-run record line, the human report, and the A/A (or
//! A/B) comparison of two sets of records.

use crate::harness::Outcome;
use crate::metrics::{of_kind, Better, Kind, MODEL_COUNTS};
use crate::stats::{median, pair_rule_holds, pair_wins, spread};
use crate::trace::layer_table;
use std::collections::BTreeMap;
use std::path::Path;

/// Run facts every record carries.
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub commit: &'a str,
}

/// The flat JSON record of one workload run: metadata, checks, sample
/// counts and every metric it reached.
pub fn record(info: &RunInfo, o: &Outcome) -> String {
    let mut j = ldsim_util::JsonObject::new();
    j.u64("bench_record", 1)
        .str("workload", info.workload)
        .u64("seed", info.seed)
        .str("seed_role", crate::seed_role(info.seed))
        .u64("default_seed", crate::DEFAULT_SEED)
        .u64("held_out_seed", crate::HELD_OUT_SEED)
        .bool("trace", info.trace)
        .f64("seconds", info.seconds)
        .u64("host_threads", crate::host::host_threads() as u64)
        .str("commit", info.commit)
        .str("engine_salt", ldsim_system::ENGINE_SALT)
        .bool("correct", o.check.failed == 0)
        .u64("attempted", o.check.attempted)
        .u64("failed", o.check.failed)
        .u64("digests_pinned", o.check.pinned_hits);
    for (k, v) in &o.meta {
        match v.parse::<u64>() {
            Ok(n) => j.u64(k, n),
            Err(_) => j.str(k, v),
        };
    }
    for (k, n) in &o.samples {
        j.u64(&format!("n.{k}"), *n as u64);
    }
    for (k, v) in &o.metrics {
        j.f64(k, *v);
    }
    if info.trace {
        j.str("na", &not_reached(o).join(","));
    }
    j.build()
}

/// Per-layer metrics this workload does not reach (reported as 0).
pub fn not_reached(o: &Outcome) -> Vec<&'static str> {
    of_kind(Kind::Layer)
        .filter(|d| o.get(d.name).is_none())
        .map(|d| d.name)
        .collect()
}

/// The last line, which automated runners read: end-to-end metrics
/// untraced, per-layer metrics traced. `None` when a required end-to-end
/// metric is missing.
pub fn result_line(o: &Outcome, trace: bool) -> Option<String> {
    let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
    let mut fields = Vec::new();
    for d in of_kind(kind) {
        let v = match o.get(d.name) {
            Some(v) if v.is_finite() => v,
            _ if trace => 0.0,
            _ => return None,
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Some(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.check.failed == 0 && o.check.attempted > 0,
        o.check.attempted.max(1),
        o.check.failed,
        fields.join(", ")
    ))
}

/// The human report, on stderr.
pub fn print_report(info: &RunInfo, o: &Outcome) {
    let meta: Vec<String> = o.meta.iter().map(|(k, v)| format!("{k} {v}")).collect();
    eprintln!(
        "== {}  seed {} ({})  host_threads {}  {}  commit {}  salt {}",
        info.workload,
        info.seed,
        crate::seed_role(info.seed),
        crate::host::host_threads(),
        meta.join("  "),
        info.commit,
        ldsim_system::ENGINE_SALT
    );
    eprintln!(
        "   checks: {} attempted, {} failed (failed_frac {}); {} compared with the pinned digests",
        o.check.attempted,
        o.check.failed,
        o.check.failed_frac(),
        o.check.pinned_hits
    );
    for e in &o.check.errors {
        eprintln!("   FAILED: {e}");
    }
    let samples: Vec<String> = o.samples.iter().map(|(k, n)| format!("{k} {n}")).collect();
    eprintln!("   samples: {}", samples.join(", "));
    eprintln!("   {:<32} {:>14}  unit", "metric", "value");
    for d in crate::metrics::CATALOGUE {
        if let Some(v) = o.get(d.name) {
            eprintln!("   {:<32} {:>14.6}  {}", d.name, v, d.unit);
        }
    }
    if info.trace {
        eprintln!("   n/a on this workload: {}", not_reached(o).join(", "));
        eprintln!(
            "   {:<24} {:>7} {:>11} {:>11} {:>11}",
            "layer (span)", "count", "total_s", "self_s", "waiting_s"
        );
        for r in layer_table(&o.spans) {
            eprintln!(
                "   {:<24} {:>7} {:>11.4} {:>11.4} {:>11.4}",
                r.name, r.count, r.total_s, r.self_s, r.wait_s
            );
        }
    }
}

/// One parsed record line.
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    values: BTreeMap<String, f64>,
}

fn read_records(path: &Path) -> Result<Vec<Record>, String> {
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        let mut v: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("cannot list {}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut out = Vec::new();
    for f in files {
        let text =
            std::fs::read_to_string(&f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        for line in text.lines().filter(|l| l.contains("\"bench_record\"")) {
            let p = ldsim_util::parse_object(line).map_err(|e| format!("{}: {e}", f.display()))?;
            let values = p
                .fields()
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect();
            out.push(Record {
                workload: p.req_str("workload")?.to_string(),
                seed: p.req_u64("seed")?,
                trace: p.req_bool("trace")?,
                values,
            });
        }
    }
    Ok(out)
}

/// The verdict on one (metric, workload) pair.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> &'static str {
    if a.len() < 3 || b.len() < 3 {
        return "unresolved";
    }
    if bound == 0.0 {
        // A metric that must not move at all (failed_frac).
        return if b.iter().all(|&x| x <= median(a)) {
            "within bound"
        } else {
            "worse"
        };
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if spread(a) > bound || spread(b) > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "within bound"
    }
}

/// Compare two sets of results; returns whether every pair is within its
/// bound and every modelled-design count identical.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_records(a_path)?, read_records(b_path)?);
    let mut ok = true;
    println!(
        "{:<19} {:<16} {:>4} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median A", "median B", "change", "spread", "bound", "wins"
    );
    for w in crate::WORKLOADS {
        for d in of_kind(Kind::EndToEnd).chain(of_kind(Kind::Workload)) {
            let vals = |rs: &[Record]| -> Vec<(u64, f64)> {
                rs.iter()
                    .filter(|r| r.workload == w && !r.trace)
                    .filter_map(|r| r.values.get(d.name).map(|&v| (r.seed, v)))
                    .collect()
            };
            let (va, vb) = (vals(&a), vals(&b));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let xa: Vec<f64> = va.iter().map(|x| x.1).collect();
            let xb: Vec<f64> = vb.iter().map(|x| x.1).collect();
            let pairs: Vec<(f64, f64)> = va
                .iter()
                .filter_map(|&(s, x)| vb.iter().find(|y| y.0 == s).map(|y| (x, y.1)))
                .collect();
            let wins = pair_wins(&pairs, d.better == Better::Lower);
            let v = verdict(&xa, &xb, d.better, d.bound);
            ok &= v != "worse";
            let (ma, mb) = (median(&xa), median(&xb));
            let claim = if pair_rule_holds(wins, pairs.len()) {
                " (B better: >=9/10 pairs)"
            } else {
                ""
            };
            println!(
                "{:<19} {:<16} {:>4} {:>12.6} {:>12.6} {:>7.2}% {:>7.2}% {:>7.0}% {:>6}  {v}{claim}",
                w,
                d.name,
                xa.len().min(xb.len()),
                ma,
                mb,
                (mb / ma - 1.0) * 100.0,
                spread(&xa).max(spread(&xb)) * 100.0,
                d.bound * 100.0,
                format!("{wins}/{}", pairs.len()),
            );
        }
    }
    // Modelled-design counts: identical for every (workload, seed).
    let mut by_run: BTreeMap<(String, u64), Vec<Vec<f64>>> = BTreeMap::new();
    for r in a.iter().chain(&b).filter(|r| r.trace) {
        let counts = MODEL_COUNTS
            .iter()
            .map(|m| r.values.get(*m).copied().unwrap_or(f64::NAN));
        by_run
            .entry((r.workload.clone(), r.seed))
            .or_default()
            .push(counts.collect());
    }
    for ((w, seed), runs) in &by_run {
        let same = runs.iter().all(|c| {
            c.iter()
                .zip(&runs[0])
                .all(|(x, y)| x.to_bits() == y.to_bits())
        });
        ok &= same;
        println!(
            "model counts {w} seed {seed}: {} over {} traced run(s)",
            if same { "identical" } else { "DIFFER" },
            runs.len()
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [1.0, 1.01, 0.99, 1.0, 1.02];
        assert_eq!(
            verdict(&a, &[1.05, 1.04, 1.06, 1.05, 1.05], Better::Lower, 0.1),
            "within bound"
        );
        assert_eq!(
            verdict(&a, &[1.2, 1.21, 1.19, 1.2, 1.2], Better::Lower, 0.1),
            "worse"
        );
        // Faster is never worse for a lower-is-better metric …
        assert_eq!(
            verdict(&a, &[0.5, 0.5, 0.5], Better::Lower, 0.1),
            "within bound"
        );
        // … but is for a higher-is-better one.
        assert_eq!(verdict(&a, &[0.5, 0.5, 0.5], Better::Higher, 0.1), "worse");
        // Noise wider than the bound, or too few runs, decides nothing.
        assert_eq!(
            verdict(&a, &[1.0, 2.0, 0.5, 1.5], Better::Lower, 0.1),
            "unresolved"
        );
        assert_eq!(verdict(&a, &[1.0, 1.0], Better::Lower, 0.1), "unresolved");
        // A zero bound tolerates no increase at all.
        assert_eq!(
            verdict(&[0.0; 3], &[0.0; 3], Better::Lower, 0.0),
            "within bound"
        );
        assert_eq!(
            verdict(&[0.0; 3], &[0.0, 0.1, 0.0], Better::Lower, 0.0),
            "worse"
        );
    }
}
