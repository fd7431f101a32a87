//! `pimbench`: the PyPIM stack's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pimbench/Cargo.toml -- \
//!     --workload <lib_arith|lib_sort_cluster|serve_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable tables go to standard error; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (each `{"value", "unit"}`). See `pimbench/README.md`.

mod check;
mod fleet_work;
mod gen;
mod lib_work;
mod replay;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pimbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any device exists, so that shard workers inherit it.
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    match trace::pin_to_one_cpu() {
        Some(cpu) => eprintln!("pimbench: pinned to CPU {cpu} of {cpus} available"),
        None => eprintln!("pimbench: could not pin to one CPU; running on {cpus}"),
    }
    let result = match args.workload.as_str() {
        "lib_arith" => lib_work::run(
            &lib_work::LibSpec::arith(),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "lib_sort_cluster" => lib_work::run(
            &lib_work::LibSpec::sort(),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve_fleet" => fleet_work::run(
            &fleet_work::FleetSpec::default(),
            args.seed,
            args.seconds,
            args.trace,
        ),
        w => {
            eprintln!(
                "pimbench: unknown workload {w:?} (lib_arith, lib_sort_cluster, serve_fleet)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(mut out) => {
            let json = out.json(args.trace);
            eprint!("{}", out.render(args.trace));
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pimbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
