//! What every workload shares: its arguments, its outcome, the round loop
//! and the scratch directories.

use crate::metrics::Checker;
use crate::stats::median;
use crate::trace::Span;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One workload invocation.
pub struct Args {
    pub seed: u64,
    /// Measure for about this long.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch root inside the working directory.
    pub work: PathBuf,
}

impl Args {
    /// A fresh, empty scratch directory `<work>/<name>`.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        reset_dir(&dir);
        dir
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Every metric it reached, by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    /// How many samples stand behind each median.
    pub samples: Vec<(&'static str, usize)>,
    /// Extra run metadata (`scale`, `jobs`, `sim_threads`, …).
    pub meta: Vec<(&'static str, String)>,
    pub check: Checker,
    /// Spans of the traced rounds.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        crate::metrics::def(name);
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Set `name` to the median of `xs` and record the sample count.
    pub fn set_median(&mut self, name: &'static str, xs: &[f64]) {
        if !xs.is_empty() {
            self.set(name, median(xs));
            self.samples.push((name, xs.len()));
        }
    }

    /// Set each metric to the median of its per-round values.
    pub fn set_medians(&mut self, rounds: &[Vec<(&'static str, f64)>]) {
        let mut names: Vec<&'static str> = Vec::new();
        for r in rounds {
            for (n, _) in r {
                if !names.contains(n) {
                    names.push(n);
                }
            }
        }
        for n in names {
            let xs: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.iter().filter(|(m, _)| *m == n).map(|&(_, v)| v))
                .collect();
            self.set(n, median(&xs));
        }
    }

    pub fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }
}

/// Per-round metrics, kept apart by whether the round was traced.
#[derive(Default)]
pub struct RoundLog {
    plain: Vec<Vec<(&'static str, f64)>>,
    traced: Vec<Vec<(&'static str, f64)>>,
    plain_wall: Vec<f64>,
    traced_wall: Vec<f64>,
}

impl RoundLog {
    pub fn push(&mut self, traced: bool, wall: f64, metrics: Vec<(&'static str, f64)>) {
        if traced {
            self.traced_wall.push(wall);
            self.traced.push(metrics);
        } else {
            self.plain_wall.push(wall);
            self.plain.push(metrics);
        }
    }

    /// Set every metric to its median over the rounds that reported it,
    /// and `trace.overhead_frac` when rounds of both kinds ran.
    pub fn finish(self, out: &mut Outcome) {
        out.set_medians(&self.plain);
        out.samples.push(("rounds", self.plain.len()));
        if !self.traced.is_empty() {
            out.set_medians(&self.traced);
            out.samples.push(("traced_rounds", self.traced.len()));
            let overhead = median(&self.traced_wall) / median(&self.plain_wall) - 1.0;
            out.set("trace.overhead_frac", overhead);
        }
    }
}

/// Run rounds until starting another would, judged by the median round so
/// far, end past `seconds`; always at least `min` rounds. `round` gets the
/// round index.
pub fn rounds(seconds: f64, min: usize, mut round: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut took: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        round(took.len());
        took.push(t.elapsed().as_secs_f64());
        let next_end = start.elapsed().as_secs_f64() + median(&took);
        if took.len() >= min && next_end > seconds {
            return took.len();
        }
    }
}

pub fn reset_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot clear {}: {e}", dir.display()));
    }
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
}

/// Every regular file directly under `dir`, by name, with its bytes.
pub fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|e| {
            let p = e.expect("directory entry").path();
            let bytes =
                std::fs::read(&p).unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()));
            (p.file_name().unwrap().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}

/// Copy the regular files of `from` into a fresh `to` (one level deep —
/// the shape of a shard store).
pub fn copy_dir(from: &Path, to: &Path) {
    reset_dir(to);
    for (name, bytes) in dir_files(from) {
        std::fs::write(to.join(&name), bytes)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", to.join(&name).display()));
    }
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_honour_the_minimum_and_the_budget() {
        let mut n = 0;
        assert_eq!(rounds(0.0, 3, |_| n += 1), 3);
        assert_eq!(n, 3);
        let ran = rounds(0.05, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        assert!((2..=5).contains(&ran), "{ran} rounds of 10 ms in 50 ms");
    }

    #[test]
    fn medians_per_metric_across_rounds() {
        let mut o = Outcome::default();
        o.set_medians(&[
            vec![("wall_s", 1.0), ("cpu_s", 5.0)],
            vec![("wall_s", 3.0), ("cpu_s", 4.0)],
            vec![("wall_s", 2.0)],
        ]);
        assert_eq!(o.get("wall_s"), Some(2.0));
        assert_eq!(o.get("cpu_s"), Some(4.5));
    }
}
