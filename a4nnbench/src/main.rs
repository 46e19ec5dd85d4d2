//! One repetition of one A4NN benchmark workload per process.
//!
//! `run.py` builds this binary, prepares each workload's inputs through it,
//! and runs repetitions in fresh processes so that every repetition's set-up
//! time and peak RSS are its own. Each invocation prints one JSON object as
//! its last line of standard output.
//!
//! ```text
//! a4nnbench <step> --workload <name> --seed <n> --dir <path> [--trace]
//! ```
//!
//! Steps: `prepare` (untimed inputs), `rep` (one measured repetition).

mod real;
mod replay;
mod serve;
mod surrogate;
mod trace;
mod util;

use std::path::PathBuf;
use trace::Tracer;

struct Args {
    step: String,
    workload: String,
    seed: u64,
    dir: PathBuf,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let step = it.next().ok_or("missing step (prepare|rep)")?;
    let (mut workload, mut seed, mut dir, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = it.next(),
            "--seed" => {
                let raw = it.next().ok_or("--seed needs a value")?;
                seed = Some(
                    raw.parse::<u64>()
                        .map_err(|e| format!("--seed {raw}: {e}"))?,
                );
            }
            "--dir" => dir = it.next().map(PathBuf::from),
            "--trace" => trace = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        step,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        dir: dir.ok_or("missing --dir")?,
        trace,
    })
}

fn run(args: &Args) -> Result<util::Report, String> {
    let tracer = args.trace.then(Tracer::leak);
    let mut report = step(args, tracer)?;
    if let Some(t) = tracer {
        t.write(&args.dir.join("trace.jsonl"))?;
        report.extend(t.report());
    }
    Ok(report)
}

fn step(args: &Args, tracer: Option<&'static Tracer>) -> Result<util::Report, String> {
    match (args.step.as_str(), args.workload.as_str()) {
        ("prepare", "real_search") => Ok(host_report(args)),
        ("rep", "real_search") => {
            util::fresh_dir(&args.dir)?;
            let (mut report, result) = real::rep(args.seed, &args.dir, tracer)?;
            report.text("digest", format!("{:016x}", result.digest));
            report.num("epochs_saved_pct", result.output.epochs_saved_pct());
            report.num("peak_rss_mb", util::peak_rss_mb());
            Ok(report)
        }
        ("prepare", "surrogate_search") => {
            util::fresh_dir(&args.dir)?;
            surrogate::prepare(args.seed, &args.dir)?;
            Ok(host_report(args))
        }
        ("rep", "surrogate_search") => {
            let out = args.dir.join("rep");
            util::fresh_dir(&out)?;
            let mut report = surrogate::rep(args.seed, &args.dir, &out, tracer)?;
            report.num("peak_rss_mb", util::peak_rss_mb());
            Ok(report)
        }
        ("prepare", "serve_classify") => {
            util::fresh_dir(&args.dir)?;
            serve::check_host()?;
            real::rep(args.seed, &args.dir, None)?;
            Ok(host_report(args))
        }
        ("rep", "serve_classify") => {
            let out = args.dir.join("rep");
            util::fresh_dir(&out)?;
            let mut report = serve::rep(args.seed, &args.dir.join("run"), &out, tracer)?;
            report.num("peak_rss_mb", util::peak_rss_mb());
            Ok(report)
        }
        (step, workload) => Err(format!("unknown step/workload {step}/{workload}")),
    }
}

/// The host and the thread and connection counts every result records.
fn host_report(args: &Args) -> util::Report {
    let cores = util::host_cores();
    let mut r = util::Report::default();
    r.num("host_cores", cores as f64);
    match args.workload.as_str() {
        "serve_classify" => {
            r.num("server_batch_workers", serve::BATCH_WORKERS as f64);
            r.num("server_reactor_threads", 1.0);
            r.num("loadgen_threads", serve::LOADGEN_THREADS as f64);
            r.num("loadgen_connections", serve::LOADGEN_CONNECTIONS as f64);
        }
        _ => {
            // Direct splits each generation across every core and gives
            // each trainer cores/gpus GEMM threads.
            let gpus = real::config(cores).gpus;
            r.num("trainer_threads", cores as f64);
            r.num("gemm_threads_per_trainer", (cores / gpus).max(1) as f64);
        }
    }
    r
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("a4nnbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("a4nnbench: {e}");
            std::process::exit(1);
        }
    }
}
