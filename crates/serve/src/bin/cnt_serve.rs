//! The `cnt_serve` binary: bind, resume anything a previous instance
//! left in flight, then serve replay sessions until stopped.
//!
//! ```text
//! cnt_serve --listen 127.0.0.1:7171 --state-dir serve_state \
//!           --global-budget-mib 64 --checkpoint-every 8 \
//!           --checkpoint-keep 2 [--jobs N] [--once N] [--resume-only]
//!           [--trace-dir DIR]
//! ```
//!
//! `--trace-dir DIR` adds the directory's `.ctr` captures to the
//! server's workload registry (as `import/<stem>` ids) so clients can
//! open registry-named sessions (`cnt_client --workload ID`).
//!
//! `--once N` accepts `N` connections, serves them, and exits (CI and
//! tests);
//! `--resume-only` completes pending sessions from a killed instance
//! and exits without listening.

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

use cnt_serve::{Server, ServerConfig};

struct Args {
    listen: String,
    cfg: ServerConfig,
    jobs: Option<usize>,
    once: Option<u64>,
    resume_only: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: cnt_serve [--listen ADDR] [--state-dir DIR] [--global-budget-mib N]\n\
         \u{20}                [--checkpoint-every CHUNKS] [--checkpoint-keep K]\n\
         \u{20}                [--jobs N] [--once N] [--resume-only] [--trace-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7171".to_string(),
        cfg: ServerConfig::default(),
        jobs: None,
        once: None,
        resume_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => args.listen = value("--listen"),
            "--state-dir" => args.cfg.state_dir = value("--state-dir").into(),
            "--trace-dir" => args.cfg.trace_dir = Some(value("--trace-dir").into()),
            "--global-budget-mib" => {
                args.cfg.global_budget_mib = parse_num(&value("--global-budget-mib"))
            }
            "--checkpoint-every" => {
                args.cfg.checkpoint_every = Some(parse_num(&value("--checkpoint-every")))
            }
            "--checkpoint-keep" => {
                args.cfg.checkpoint_keep = parse_num(&value("--checkpoint-keep"))
            }
            "--jobs" => args.jobs = Some(parse_num(&value("--jobs"))),
            "--once" => args.once = Some(parse_num(&value("--once"))),
            "--resume-only" => args.resume_only = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    if args.cfg.checkpoint_keep == 0 {
        eprintln!("--checkpoint-keep must be positive");
        usage()
    }
    args
}

fn parse_num<T: std::str::FromStr>(text: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("`{text}` is not a valid number");
        usage()
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(jobs) = args.jobs {
        cnt_bench::pool::set_jobs(jobs);
    }
    let server = match Server::bind(&args.listen, args.cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cnt_serve: bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };

    let resumed = server.resume_pending();
    let failures = resumed.iter().filter(|(_, r)| r.is_err()).count();
    if !resumed.is_empty() {
        eprintln!(
            "cnt_serve: resumed {} pending session(s), {failures} failure(s)",
            resumed.len()
        );
    }
    if args.resume_only {
        return if failures == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    match server.local_addr() {
        Ok(addr) => eprintln!("cnt_serve: listening on {addr}"),
        Err(e) => eprintln!("cnt_serve: listening (local_addr: {e})"),
    }
    static SHUTDOWN: AtomicBool = AtomicBool::new(false);
    match server.run(&SHUTDOWN, args.once) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cnt_serve: listener failure: {e}");
            ExitCode::FAILURE
        }
    }
}
