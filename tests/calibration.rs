//! Tier-1 promotion of the `calibration` figure's paper-range assertions
//! (DESIGN.md §8.4): the irregular suite's aggregate memory behaviour
//! under the GMC baseline must stay inside the bands the paper reports,
//! or `cargo test` fails — not just `repro --only calibration`.
//!
//! Bands match the `calibration` figure spec exactly; `tests/repro.rs`
//! already proves that spec's render passes at this scale/seed, so these
//! direct assertions can never be stricter than what `repro` enforces.

use ldsim::system::runner::irregular_names;
use ldsim::system::sweep::{run_sweep, Cell, SweepConfig};
use ldsim::types::stats::mean;
use ldsim::types::SchedulerKind;
use ldsim::workloads::Scale;

fn within(name: &str, got: f64, lo: f64, hi: f64) {
    assert!(
        got >= lo && got <= hi,
        "{name}: {got:.3} outside the paper band [{lo}, {hi}]"
    );
}

#[test]
fn irregular_suite_matches_paper_characteristics() {
    let cells: Vec<Cell> = irregular_names()
        .iter()
        .map(|&b| Cell::new(b, Scale::Tiny, 1, SchedulerKind::Gmc))
        .collect();
    let (store, _) = run_sweep(&cells, &SweepConfig::default());

    let (mut df, mut rpl, mut ch, mut sr, mut bk) = (vec![], vec![], vec![], vec![], vec![]);
    for c in &cells {
        let r = store.get(c);
        df.push(r.divergent_frac());
        rpl.push(r.avg_reqs_per_load);
        ch.push(r.avg_channels_touched);
        sr.push(r.same_row_frac);
        bk.push(r.avg_banks_touched);
    }
    // Fig. 2: 56% divergent loads, 5.9 requests per load on average.
    within("divergent load fraction", mean(&df), 0.40, 0.72);
    within("requests per load", mean(&rpl), 3.0, 8.0);
    // Fig. 3: ~2.5 controllers, ~30% same-row, a few (ch,bank) pairs.
    within("controllers per warp", mean(&ch), 1.8, 3.3);
    within("same-row fraction", mean(&sr), 0.15, 0.45);
    within("(ch,bank) pairs per warp", mean(&bk), 2.0, 7.0);
}
