//! `dgobench --workload <onion|sftree|planted> --seed <n> --seconds <s>
//! --trace <0|1> [--out <dir>]`
//!
//! Prints a context line, then as its last line the result JSON
//! (`correct`, `attempted`, `failed`, `metrics`). Writes a run record, and
//! for traced runs a Chrome trace, under `--out` (default `.bench_out`).
//! Start it through `run.py`, which builds it and pins `DGO_JOBS=1`.

use dgobench::{plain, sys, traced, Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dgobench: {e}");
            return ExitCode::from(2);
        }
    };
    // The library reads DGO_JOBS once per process for ingestion and the
    // Params presets; anything but 1 would time a different program.
    // dgo-lint: allow(R2) — checks the knob the run was started with, tunes nothing
    if std::env::var("DGO_JOBS").as_deref() != Ok("1") {
        eprintln!("dgobench: run with DGO_JOBS=1 (use run.py)");
        return ExitCode::from(2);
    }
    let name = format!("{}-seed{}", args.workload.name(), args.seed);
    let mut report = if args.trace {
        let (report, trace_json) = traced::run(args.workload, args.seed, Scale::Full);
        if let Err(e) = write(&args.out, &format!("{name}.trace.json"), &trace_json) {
            eprintln!("dgobench: {e}");
            return ExitCode::from(1);
        }
        report
    } else {
        plain::run(args.workload, args.seed, args.seconds, Scale::Full)
    };
    report.context("workload", args.workload.name());
    report.context("seed", args.seed);
    report.context("available_parallelism", sys::available_parallelism());
    report.context("threads", sys::thread_count());
    let context = report.context_json();
    let result = report.result_json();
    let record = format!("{context}\n{result}\n");
    let kind = if args.trace { "traced" } else { "plain" };
    if let Err(e) = write(&args.out, &format!("{name}.{kind}.json"), &record) {
        eprintln!("dgobench: {e}");
        return ExitCode::from(1);
    }
    print!("{record}");
    ExitCode::SUCCESS
}

fn write(dir: &Path, file: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}
