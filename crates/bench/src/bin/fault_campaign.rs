//! Seeded direction-metadata fault-injection campaigns from the command
//! line.
//!
//! Usage:
//!
//! ```text
//! fault_campaign                      # default grid (faults 2,8,16, seed 0xFA17)
//! fault_campaign --faults 4,32 --seed 7 --dim 16
//! fault_campaign --jobs 4             # cap the worker pool
//! fault_campaign --seq                # force sequential execution
//! fault_campaign --metrics-out m.jsonl --metrics-every 5000
//! fault_campaign --metrics-final      # dump registry counters at exit
//! ```
//!
//! Campaign cells are computed on the shared worker pool but rendered in
//! grid order, and registry counters are additive and exported sorted by
//! name — so stdout and the metrics stream are byte-identical whatever
//! `--jobs` is set to.

use std::process::ExitCode;

use cnt_bench::campaign;
use cnt_bench::cli::{self, CmdError};
use cnt_workloads::kernels;

/// Default snapshot epoch length (accesses) when only `--metrics-out`
/// is given.
const DEFAULT_METRICS_EVERY: u64 = 10_000;

fn usage() {
    eprintln!(
        "usage: fault_campaign [--faults N,N,...] [--seed S] [--dim N] \
         [--jobs N | --seq] [--metrics-out FILE [--metrics-every N]] \
         [--metrics-final]"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }

    let mut faults: Vec<usize> = vec![2, 8, 16];
    let mut seed = 0xFA17u64;
    let mut dim = 24usize;
    let mut jobs: Option<usize> = None;
    let mut metrics_out: Option<String> = None;
    let mut metrics_every: Option<u64> = None;
    let mut metrics_final = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let parsed = match arg.as_str() {
            "--seq" => {
                jobs = Some(1);
                Ok(())
            }
            "--jobs" | "-j" => cli::positive_int_flag(&mut iter, "--jobs").map(|n| jobs = Some(n)),
            "--faults" => cli::flag_value(&mut iter, "--faults").and_then(|raw| {
                let parsed: Option<Vec<usize>> =
                    raw.split(',').map(|p| p.trim().parse().ok()).collect();
                match parsed.filter(|l| !l.is_empty()) {
                    Some(list) => {
                        faults = list;
                        Ok(())
                    }
                    None => Err(CmdError::Usage(String::from(
                        "--faults needs a comma-separated list of counts",
                    ))),
                }
            }),
            "--seed" => cli::flag_value(&mut iter, "--seed").and_then(|raw| {
                raw.strip_prefix("0x")
                    .map_or_else(|| raw.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
                    .map(|s| seed = s)
                    .ok_or_else(|| {
                        CmdError::Usage(String::from("--seed needs an integer (decimal or 0x-hex)"))
                    })
            }),
            "--dim" => cli::positive_int_flag(&mut iter, "--dim").map(|n| dim = n),
            "--metrics-out" => {
                cli::flag_value(&mut iter, "--metrics-out").map(|p| metrics_out = Some(p.into()))
            }
            "--metrics-every" => cli::positive_int_flag(&mut iter, "--metrics-every")
                .map(|n| metrics_every = Some(n)),
            "--metrics-final" => {
                metrics_final = true;
                Ok(())
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
                return ExitCode::from(2);
            }
        };
        if let Err(e) = parsed {
            return e.exit();
        }
    }
    if metrics_every.is_some() && metrics_out.is_none() {
        eprintln!("error: --metrics-every needs --metrics-out");
        return ExitCode::from(2);
    }

    cnt_bench::pool::set_jobs(jobs.unwrap_or_else(cnt_bench::pool::default_jobs));
    let metrics = cli::install_metrics(
        metrics_out
            .as_ref()
            .map(|_| metrics_every.unwrap_or(DEFAULT_METRICS_EVERY)),
    );

    let w = kernels::matmul(dim, 1);
    let grid = campaign::default_grid(&faults, seed);
    let outcomes = {
        let _scope = cnt_obs::scoped("fault_campaign");
        campaign::sweep(&w.trace, &grid)
    };
    println!(
        "Fault-injection campaign: matmul {dim}x{dim}, seed {seed:#x}, \
         {} cells.\n",
        grid.len()
    );
    print!("{}", campaign::render(&outcomes));

    match cli::finish_metrics(
        metrics,
        metrics_out.as_deref(),
        metrics_final.then_some("\n==== final metrics ===="),
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.exit(),
    }
}
