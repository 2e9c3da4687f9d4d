//! Generates, converts, and replays workload traces.
//!
//! Besides inspecting the built-in kernels (`list`/`stats`/`dump`/`text`)
//! this is the CLI front end of the `cnt-trace` streaming pipeline:
//! `pack` converts JSON/text traces into the chunked `.ctr` binary form,
//! `pack-synth` streams a synthetic workload straight to disk without
//! materializing it, `unpack` recovers text/JSON, and `stream-replay`
//! runs a `.ctr` file through the simulator in bounded memory with
//! chunk-parallel decode.
//!
//! ```text
//! tracegen list
//! tracegen stats matmul
//! tracegen dump quicksort > quicksort_trace.json
//! tracegen synth --reads 0.8 --density 0.1 --accesses 5000 > synth.json
//! tracegen pack quicksort_trace.json quicksort.ctr --chunk 1024
//! tracegen pack-synth big.ctr --accesses 50000000 --density 0.1
//! tracegen unpack quicksort.ctr --json
//! tracegen stream-replay big.ctr --budget-mib 8 --jobs 4
//! ```
//!
//! Flag parsing is strict: unknown flags, missing values, non-finite or
//! out-of-range fractions, and stray positional arguments are all errors
//! (exit code 2), never silent defaults.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use cnt_bench::ckpt;
use cnt_bench::cli::{self, flag_value, fraction_flag, int_flag, one_positional, CmdError};
use cnt_bench::driver::{
    restore_resume_obs, run_two_pass, CheckpointPlan, CheckpointStore, ResumeState, SessionPlan,
    SingleFileStore,
};
use cnt_bench::pool;
use cnt_import::{import_file, ImportOptions, SourceFormat};
use cnt_sim::trace::AccessBatch;
use cnt_trace::{
    pack_accesses_with, read_trace, rotate, CheckpointRotator, CorruptionPolicy, PackSummary,
    ReadOptions, StreamReader, WriteOptions,
};
use cnt_workloads::synthetic::{AddressPattern, SyntheticSpec};
use cnt_workloads::{suite_extended, Workload};

const USAGE: &str = "usage:
  tracegen list
  tracegen stats <kernel>
  tracegen dump <kernel>            # JSON to stdout
  tracegen text <kernel>            # `KIND ADDR WIDTH [VALUE]` lines to stdout
  tracegen replay <file.trace>      # run a text trace: baseline vs CNT-Cache
  tracegen synth [--reads F] [--density F] [--accesses N] [--lines N] [--seed N]
  tracegen pack <in.json|in.trace> <out.ctr> [--chunk N] [--compress]
  tracegen pack-synth <out.ctr> [synth flags] [--chunk N] [--compress]
  tracegen import <in> <out.ctr> [--format champsim|memtrace] [--lenient]
                  [--chunk N] [--compress] [--report FILE.json]
                  # in: ChampSim binary or memtrace text, plain or .gz
  tracegen unpack <in.ctr> [--json]
  tracegen stream-replay <file.ctr> [--budget-mib N] [--skip-corrupt]
                         [--jobs N | --seq]
                         [--metrics-out FILE [--metrics-every N]]
                         [--checkpoint-every N [--checkpoint-to FILE]
                          [--checkpoint-keep K]]
                         [--resume FILE.ctrs|FAMILY]";

use CmdError::{Runtime, Usage};

/// Every subcommand, for the unknown-subcommand error.
const SUBCOMMANDS: &[&str] = &[
    "list",
    "stats",
    "dump",
    "text",
    "replay",
    "synth",
    "pack",
    "pack-synth",
    "unpack",
    "import",
    "stream-replay",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let rest = &args[1..];
    let result = match args[0].as_str() {
        "list" => cmd_list(rest),
        "stats" => cmd_kernel(rest, |w| print_stats(&w.name, &w.description, &w.trace)),
        "dump" => cmd_dump(rest),
        "text" => cmd_kernel(rest, |w| print!("{}", w.trace.to_text())),
        "replay" => cmd_replay(rest),
        "synth" => cmd_synth(rest),
        "pack" => cmd_pack(rest),
        "pack-synth" => cmd_pack_synth(rest),
        "unpack" => cmd_unpack(rest),
        "import" => cmd_import(rest),
        "stream-replay" => cmd_stream_replay(rest),
        other => Err(Usage(format!(
            "unknown subcommand `{other}` (known: {})",
            SUBCOMMANDS.join(", ")
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- parsing
// (The strict flag helpers live in `cnt_bench::cli`, shared with the
// other bench bins.)

/// Parses the shared synthetic-spec flags; `--chunk` is accepted only
/// when `allow_chunk` (the packing subcommand).
fn parse_synth(
    args: &[String],
    allow_chunk: bool,
) -> Result<(SyntheticSpec, WriteOptions), CmdError> {
    let mut spec = SyntheticSpec {
        accesses: 10_000,
        footprint_lines: 64,
        read_fraction: 0.7,
        ones_density: 0.25,
        pattern: AddressPattern::UniformRandom,
        seed: 7,
    };
    let mut options = WriteOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--reads" => spec.read_fraction = fraction_flag(&mut iter, "--reads")?,
            "--density" => spec.ones_density = fraction_flag(&mut iter, "--density")?,
            "--accesses" => spec.accesses = int_flag(&mut iter, "--accesses")?,
            "--lines" => {
                spec.footprint_lines = int_flag(&mut iter, "--lines")?;
                if spec.footprint_lines == 0 {
                    return Err(Usage("--lines must be at least 1".into()));
                }
            }
            "--seed" => spec.seed = int_flag(&mut iter, "--seed")?,
            "--chunk" if allow_chunk => {
                options.chunk_accesses = int_flag(&mut iter, "--chunk")?;
                if options.chunk_accesses == 0 {
                    return Err(Usage("--chunk must be at least 1".into()));
                }
            }
            "--compress" if allow_chunk => options.compress = true,
            other => return Err(Usage(format!("unknown flag `{other}` for synth"))),
        }
    }
    Ok((spec, options))
}

// ------------------------------------------------------------ subcommands

fn cmd_list(args: &[String]) -> Result<(), CmdError> {
    if !args.is_empty() {
        return Err(Usage("`list` takes no arguments".into()));
    }
    for w in suite_extended() {
        println!("{:<16} {}", w.name, w.description);
    }
    Ok(())
}

fn find_kernel(name: &str) -> Result<Workload, CmdError> {
    suite_extended()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| Runtime(format!("unknown kernel `{name}` (try `tracegen list`)")))
}

fn cmd_kernel(args: &[String], show: impl Fn(&Workload)) -> Result<(), CmdError> {
    let name = one_positional(args, "kernel name")?;
    show(&find_kernel(name)?);
    Ok(())
}

fn cmd_dump(args: &[String]) -> Result<(), CmdError> {
    let name = one_positional(args, "kernel name")?;
    let w = find_kernel(name)?;
    let json = serde_json::to_string(&w.trace)
        .map_err(|e| Runtime(format!("serialization failed: {e}")))?;
    println!("{json}");
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), CmdError> {
    let path = one_positional(args, "trace path")?;
    let trace = load_text_or_json(path)?;
    print_stats(path, "external trace", &trace);
    let [base, cnt] = cnt_bench::runner::run_dcache_pair(&trace);
    println!();
    print_comparison(&base, &cnt);
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), CmdError> {
    let (spec, _) = parse_synth(args, false)?;
    let trace = spec.generate();
    let json =
        serde_json::to_string(&trace).map_err(|e| Runtime(format!("serialization failed: {e}")))?;
    eprintln!("# {spec:?}");
    println!("{json}");
    Ok(())
}

fn cmd_pack(args: &[String]) -> Result<(), CmdError> {
    let (positionals, flags) = split_positionals(args);
    let [input, output] = positionals[..] else {
        return Err(Usage("`pack` needs <in.json|in.trace> <out.ctr>".into()));
    };
    let mut options = WriteOptions::default();
    let mut iter = flags.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--chunk" => {
                options.chunk_accesses = int_flag(&mut iter, "--chunk")?;
                if options.chunk_accesses == 0 {
                    return Err(Usage("--chunk must be at least 1".into()));
                }
            }
            "--compress" => options.compress = true,
            other => return Err(Usage(format!("unknown flag `{other}` for pack"))),
        }
    }
    let trace = load_text_or_json(input)?;
    let summary = write_ctr(output, |sink| pack_accesses_with(&trace, sink, options))?;
    print_pack_summary(output, &summary);
    Ok(())
}

fn cmd_pack_synth(args: &[String]) -> Result<(), CmdError> {
    let (positionals, flags) = split_positionals(args);
    let [output] = positionals[..] else {
        return Err(Usage("`pack-synth` needs <out.ctr>".into()));
    };
    let (spec, options) = parse_synth(&flags, true)?;
    // The spec streams straight into the writer: memory stays bounded by
    // one chunk however many accesses are requested.
    let summary = write_ctr(output, |sink| {
        pack_accesses_with(spec.stream(), sink, options)
    })?;
    eprintln!("# {spec:?}");
    print_pack_summary(output, &summary);
    Ok(())
}

fn cmd_unpack(args: &[String]) -> Result<(), CmdError> {
    let (positionals, flags) = split_positionals(args);
    let [input] = positionals[..] else {
        return Err(Usage("`unpack` needs <in.ctr>".into()));
    };
    let mut as_json = false;
    for arg in &flags {
        match arg.as_str() {
            "--json" => as_json = true,
            other => return Err(Usage(format!("unknown flag `{other}` for unpack"))),
        }
    }
    let file =
        std::fs::File::open(input).map_err(|e| Runtime(format!("cannot read `{input}`: {e}")))?;
    let trace = read_trace(std::io::BufReader::new(file), ReadOptions::default())
        .map_err(|e| Runtime(format!("`{input}`: {e}")))?;
    if as_json {
        let json = serde_json::to_string(&trace)
            .map_err(|e| Runtime(format!("serialization failed: {e}")))?;
        println!("{json}");
    } else {
        print!("{}", trace.to_text());
    }
    Ok(())
}

/// `tracegen import <in> <out.ctr>`: converts a real-application
/// capture (ChampSim-style binary or memtrace-style text, plain or
/// gzip'd) into the repo's `.ctr` format. Strict by default — the
/// first malformed record is a usage-class failure (exit 2) naming its
/// line or byte offset; `--lenient` opts into drop-and-count.
fn cmd_import(args: &[String]) -> Result<(), CmdError> {
    let (positionals, flags) = split_positionals(args);
    let [input, output] = positionals[..] else {
        return Err(Usage("`import` needs <in> <out.ctr>".into()));
    };
    let mut opts = ImportOptions::default();
    let mut report_out: Option<String> = None;
    let mut iter = flags.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--format" => {
                let raw = flag_value(&mut iter, "--format")?;
                opts.format = Some(SourceFormat::from_flag(raw).ok_or_else(|| {
                    Usage(format!(
                        "--format: `{raw}` is not a known format (champsim, memtrace)"
                    ))
                })?);
            }
            "--lenient" => opts.lenient = true,
            "--chunk" => {
                opts.chunk_accesses = int_flag(&mut iter, "--chunk")?;
                if opts.chunk_accesses == 0 {
                    return Err(Usage("--chunk must be at least 1".into()));
                }
            }
            "--compress" => opts.compress = true,
            "--report" => report_out = Some(flag_value(&mut iter, "--report")?.into()),
            other => return Err(Usage(format!("unknown flag `{other}` for import"))),
        }
    }
    // Parse failures exit 2 (the input contract was violated, pointing
    // at line/offset context); I/O failures exit 1.
    let report = import_file(Path::new(input), Path::new(output), opts).map_err(|e| match e {
        cnt_import::ImportError::Io(_) | cnt_import::ImportError::Trace(_) => {
            Runtime(format!("`{input}`: {e}"))
        }
        other => Usage(format!("`{input}`: {other}")),
    })?;
    eprintln!(
        "# imported {} ({}{}) -> {} accesses ({} R / {} W / {} I), {} chunks, {} dropped",
        report.source,
        report.format,
        if report.gzip { ", gzip" } else { "" },
        report.accesses,
        report.reads,
        report.writes,
        report.ifetches,
        report.chunks,
        report.dropped,
    );
    println!(
        "packed  {}: {} chunks, {} accesses, {} payload ({} on disk), identity {}",
        output,
        report.chunks,
        report.accesses,
        mib(report.payload_bytes),
        mib(report.output_bytes),
        report.identity
    );
    if let Some(path) = report_out {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| Runtime(format!("serializing import report failed: {e}")))?;
        std::fs::write(&path, json + "\n")
            .map_err(|e| Runtime(format!("cannot write `{path}`: {e}")))?;
    }
    Ok(())
}

fn cmd_stream_replay(args: &[String]) -> Result<(), CmdError> {
    let (positionals, flags) = split_positionals(args);
    let [input] = positionals[..] else {
        return Err(Usage("`stream-replay` needs <file.ctr>".into()));
    };
    let mut budget_mib: usize = 8;
    let mut corruption = CorruptionPolicy::FailFast;
    let mut jobs: Option<usize> = None;
    let mut metrics_out: Option<String> = None;
    let mut metrics_every: Option<u64> = None;
    let mut ckpt_every: Option<u64> = None;
    let mut ckpt_to: Option<String> = None;
    let mut ckpt_keep: Option<usize> = None;
    let mut resume_from: Option<String> = None;
    let mut iter = flags.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--budget-mib" => {
                budget_mib = int_flag(&mut iter, "--budget-mib")?;
                if budget_mib == 0 {
                    return Err(Usage("--budget-mib must be at least 1".into()));
                }
            }
            "--skip-corrupt" => corruption = CorruptionPolicy::SkipWithReport,
            "--seq" => jobs = Some(1),
            "--jobs" | "-j" => {
                let n: usize = int_flag(&mut iter, "--jobs")?;
                if n == 0 {
                    return Err(Usage("--jobs needs a positive integer".into()));
                }
                jobs = Some(n);
            }
            "--metrics-out" => metrics_out = Some(flag_value(&mut iter, "--metrics-out")?.into()),
            "--metrics-every" => {
                let n: u64 = int_flag(&mut iter, "--metrics-every")?;
                if n == 0 {
                    return Err(Usage("--metrics-every needs a positive integer".into()));
                }
                metrics_every = Some(n);
            }
            "--checkpoint-every" => {
                let n: u64 = int_flag(&mut iter, "--checkpoint-every")?;
                if n == 0 {
                    return Err(Usage("--checkpoint-every needs a positive integer".into()));
                }
                ckpt_every = Some(n);
            }
            "--checkpoint-to" => ckpt_to = Some(flag_value(&mut iter, "--checkpoint-to")?.into()),
            "--checkpoint-keep" => {
                let k: usize = int_flag(&mut iter, "--checkpoint-keep")?;
                if k == 0 {
                    return Err(Usage("--checkpoint-keep needs a positive integer".into()));
                }
                ckpt_keep = Some(k);
            }
            "--resume" => resume_from = Some(flag_value(&mut iter, "--resume")?.into()),
            other => return Err(Usage(format!("unknown flag `{other}` for stream-replay"))),
        }
    }
    if metrics_every.is_some() && metrics_out.is_none() {
        return Err(Usage("--metrics-every needs --metrics-out".into()));
    }
    if ckpt_to.is_some() && ckpt_every.is_none() {
        return Err(Usage("--checkpoint-to needs --checkpoint-every".into()));
    }
    if ckpt_keep.is_some() && ckpt_every.is_none() {
        return Err(Usage("--checkpoint-keep needs --checkpoint-every".into()));
    }
    if (ckpt_every.is_some() || resume_from.is_some()) && corruption != CorruptionPolicy::FailFast {
        // Under skip-with-report the consumed-chunk count diverges from
        // the reader cursor; a resume could silently replay the wrong
        // suffix of the trace.
        return Err(Usage(
            "--checkpoint-every/--resume cannot be combined with --skip-corrupt".into(),
        ));
    }
    let metrics_every_effective = metrics_out
        .as_ref()
        .map(|_| metrics_every.unwrap_or(10_000));

    let (base_cfg, cnt_cfg) = cnt_bench::driver::stream_config_pair();

    // Validate a resume checkpoint fully before touching any process
    // state: structure, CRCs, config fingerprint, metrics consistency.
    // `--resume` accepts either an exact `.ctrs` file or a rotation
    // family base, which resolves to its newest generation.
    let resumed = match &resume_from {
        Some(rp) => {
            let resolved = rotate::resolve_resume(Path::new(rp))
                .map_err(|e| Runtime(format!("`{rp}`: {e}")))?
                .ok_or_else(|| {
                    Runtime(format!(
                        "`{rp}`: no checkpoint file or family generations found"
                    ))
                })?;
            let expected = ckpt::pair_fingerprint(base_cfg.fingerprint(), cnt_cfg.fingerprint());
            let (file, driver, obs) = ckpt::load(&resolved, expected)
                .map_err(|e| Runtime(format!("`{}`: {e}", resolved.display())))?;
            if driver.metrics_every != metrics_every_effective {
                return Err(Usage(format!(
                    "--resume: checkpoint was taken with metrics epoch {:?}, \
                     this invocation uses {:?} — metrics flags must match",
                    driver.metrics_every, metrics_every_effective
                )));
            }
            Some((file, driver, obs))
        }
        None => None,
    };

    pool::set_jobs(jobs.unwrap_or_else(pool::default_jobs));
    let metrics = cli::install_metrics(metrics_every_effective);
    if let Some((_, driver, obs)) = &resumed {
        restore_resume_obs(driver, obs.clone());
        eprintln!(
            "resume: pass {} at chunk {} ({} accesses)",
            driver.pass, driver.cursor.chunk, driver.cursor.accesses
        );
    }
    let opts = ReadOptions {
        budget_bytes: budget_mib * 1024 * 1024,
        corruption,
    };
    let path = Path::new(input);

    // Peek at the header for the banner before either replay pass.
    {
        let file = std::fs::File::open(path)
            .map_err(|e| Runtime(format!("cannot read `{input}`: {e}")))?;
        let reader = StreamReader::new(std::io::BufReader::new(file), opts)
            .map_err(|e| Runtime(format!("`{input}`: {e}")))?;
        let header = reader.header();
        println!(
            "header:     .ctr v{}, chunk target {} accesses",
            header.version, header.chunk_target
        );
    }

    // `file.ctr` checkpoints to `file.ctrs` unless --checkpoint-to says
    // otherwise.
    let ckpt_path = ckpt_to.unwrap_or_else(|| {
        if input.ends_with(".ctr") {
            format!("{input}s")
        } else {
            format!("{input}.ctrs")
        }
    });
    let ckpt_path = Path::new(&ckpt_path);

    // With --checkpoint-keep the path names a rotation family (numbered
    // generations, GC'd to the newest K); without it, the original
    // atomic overwrite-in-place single file.
    let mut store: Box<dyn CheckpointStore> = match ckpt_keep {
        Some(keep) => Box::new(
            CheckpointRotator::new(ckpt_path, keep)
                .map_err(|e| Runtime(format!("`{}`: {e}", ckpt_path.display())))?,
        ),
        None => Box::new(SingleFileStore(ckpt_path.to_path_buf())),
    };
    let plan = SessionPlan {
        input: path,
        opts,
        base_cfg: &base_cfg,
        cnt_cfg: &cnt_cfg,
        metrics_every: metrics_every_effective,
        checkpoint: ckpt_every.map(|every| CheckpointPlan {
            every,
            store: &mut *store,
        }),
        cancel: None,
    };
    let resume_state = resumed.map(|(file, driver, _)| ResumeState { file, driver });
    let outcome = run_two_pass(plan, resume_state.as_ref()).map_err(|e| Runtime(e.to_string()))?;
    let (base, cnt) = (outcome.base, outcome.cnt);

    let ingest = cnt.ingest;
    println!(
        "chunks:     {} read, {} consumed, {} skipped ({} CRC failures, {} bad payloads)",
        ingest.chunks_read,
        ingest.chunks_consumed,
        ingest.chunks_skipped,
        ingest.crc_failures,
        ingest.decode_failures
    );
    println!(
        "ingest:     {:.2} MiB read, {:.2} MiB decoded, peak buffered {:.2} MiB (budget {budget_mib} MiB)",
        mib(ingest.bytes_read),
        mib(ingest.bytes_decoded),
        mib(ingest.peak_buffered_bytes)
    );
    println!("accesses:   {}", cnt.accesses);
    println!();
    print_comparison(&base.report, &cnt.report);

    cli::finish_metrics(metrics, metrics_out.as_deref(), None)
}

// --------------------------------------------------------------- helpers

/// Splits arguments into leading positionals and the flag tail (the
/// first `--`-prefixed argument starts the flags).
fn split_positionals(args: &[String]) -> (Vec<&String>, Vec<String>) {
    let boundary = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    (args[..boundary].iter().collect(), args[boundary..].to_vec())
}

fn load_text_or_json(path: &str) -> Result<AccessBatch, CmdError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Runtime(format!("cannot read `{path}`: {e}")))?;
    if path.ends_with(".json") {
        serde_json::from_str(&text).map_err(|e| Runtime(format!("cannot parse `{path}`: {e}")))
    } else {
        text.parse()
            .map_err(|e| Runtime(format!("cannot parse `{path}`: {e}")))
    }
}

fn write_ctr(
    path: &str,
    pack: impl FnOnce(
        &mut std::io::BufWriter<std::fs::File>,
    ) -> Result<PackSummary, cnt_trace::TraceError>,
) -> Result<PackSummary, CmdError> {
    let file =
        std::fs::File::create(path).map_err(|e| Runtime(format!("cannot create `{path}`: {e}")))?;
    let mut sink = std::io::BufWriter::new(file);
    let summary = pack(&mut sink).map_err(|e| Runtime(format!("cannot write `{path}`: {e}")))?;
    sink.flush()
        .map_err(|e| Runtime(format!("cannot write `{path}`: {e}")))?;
    Ok(summary)
}

fn print_pack_summary(path: &str, summary: &PackSummary) {
    println!(
        "packed {} accesses into {} chunks ({:.2} MiB payload) -> {path}",
        summary.accesses,
        summary.chunks,
        mib(summary.payload_bytes)
    );
}

fn print_comparison(base: &cnt_cache::EnergyReport, cnt: &cnt_cache::EnergyReport) {
    println!("baseline:  {:.1}", base.total());
    println!("CNT-Cache: {:.1}", cnt.total());
    println!("saving:    {:.2}%", cnt.saving_vs(base));
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn print_stats(name: &str, description: &str, trace: &AccessBatch) {
    println!("workload:   {name}");
    println!("detail:     {description}");
    println!("accesses:   {}", trace.len());
    println!("writes:     {:.2}%", trace.write_fraction() * 100.0);
    println!(
        "footprint:  {} lines ({} KiB)",
        trace.footprint_blocks(),
        trace.footprint_blocks() * 64 / 1024
    );
    let (mut ones, mut bits) = (0u64, 0u64);
    for a in trace.iter().filter(|a| a.is_write()) {
        ones += u64::from(a.value.count_ones());
        bits += u64::from(a.width) * 8;
    }
    if bits > 0 {
        println!(
            "write ones: {:.2}% bit density",
            ones as f64 / bits as f64 * 100.0
        );
    }
}
