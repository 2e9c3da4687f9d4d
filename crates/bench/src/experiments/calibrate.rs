//! Scratch calibration probe: per-kernel savings under the default
//! adaptive policy (used while tuning; superseded by `fig3`).

use std::fmt::Write as _;

use cnt_workloads::suite;

use crate::runner::{mean, run_dcache_pair};

/// Runs the full suite and reports per-kernel savings for a quick look.
pub fn calibrate() -> String {
    let mut out = String::new();
    let mut savings = Vec::new();
    for w in suite() {
        let [base, cnt] = run_dcache_pair(&w.trace);
        let s = cnt.saving_vs(&base);
        savings.push(s);
        let _ = writeln!(
            out,
            "{:<16} {:>10} accesses  base {:>14.1} fJ  cnt {:>14.1} fJ  saving {:>6.2}%  (switches {} / windows {})",
            w.name,
            w.trace.len(),
            base.total().femtojoules(),
            cnt.total().femtojoules(),
            s,
            cnt.encoding.switches_applied,
            cnt.encoding.windows,
        );
    }
    let _ = writeln!(out, "mean saving: {:.2}%", mean(&savings));
    out
}
