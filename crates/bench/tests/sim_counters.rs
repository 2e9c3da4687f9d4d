//! `experiments --metrics-final` reports how much simulation the shared
//! lane groups saved: `fig11` compares ten policies on each of the
//! suite's traces, so its lanes replay ten times the accesses its
//! simulators do.

use std::process::Command;

#[test]
fn fig11_simulates_each_trace_once_for_its_ten_lanes() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--seq", "--metrics-final", "fig11"])
        .output()
        .expect("runs experiments");
    assert!(output.status.success(), "experiments failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 report");
    let counter = |name: &str| -> u64 {
        stdout
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("`{name}` missing from:\n{stdout}"))
            .parse()
            .expect("counter value")
    };
    assert_eq!(counter("sim.accesses_simulated"), 509_187);
    assert_eq!(counter("sim.lane_accesses"), 5_091_870);
}
