//! The rowpoly benchmark: three workloads (`fig9`, `corpus`, `edit`)
//! driven through the public entry points — `Session` one-shot checks,
//! `rowpoly_batch::check_sources`, and `rowpoly_serve::ServeEngine` —
//! with known-answer checks on every verdict. See `README.md` here for
//! the workloads, the metrics and the layer → end-to-end predictions.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//! perfbench --report [--seed N] [--seconds S]
//! perfbench --self-test
//! ```
//!
//! A run prints an `info` line and then, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced (`--trace 0`) or the per-layer metrics
//! from the traced run (`--trace 1`), each `{"value", "unit"}`.

mod batch;
mod calib;
mod ctx;
mod inputs;
mod oneshot;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use rowpoly_obs::json::Json;

use crate::inputs::Scale;
use crate::workload::{Config, Workload};

#[global_allocator]
static ALLOC: rowpoly_obs::CountingAlloc = rowpoly_obs::CountingAlloc;

/// The seed the benchmark is tuned and reported on.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, to re-check a gain on inputs it was not
/// tuned on: `--report --seed 7919`.
pub const HELD_OUT_SEED: u64 = 7_919;
/// Measuring time per run when none is given.
pub const DEFAULT_SECONDS: f64 = 36.0;

/// Where runs keep temporary files and traces, relative to the working
/// directory.
pub const OUT_DIR: &str = ".perfbench";

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    arg(args, name)
        .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
        .transpose()
}

/// Runs one workload and prints its result line.
fn run_one(args: &[String]) -> Result<(), String> {
    let name = arg(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = parse(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = parse(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let trace = match arg(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let work_dir = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Paper,
        work_dir: work_dir.clone(),
    };
    let out = workload::run(&cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    if trace {
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{name}-{seed}.json"));
        workload::write_trace(&out, &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
    }
    println!("{} {}", report::INFO_PREFIX, out.info.render());
    println!("{}", result_line(&out).render());
    Ok(())
}

fn result_line(out: &workload::Outcome) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        (
            "metrics",
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|&(name, value)| {
                        (
                            name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Float(value)),
                                ("unit", Json::Str(workload::unit(name).to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.iter().any(|a| a == "--self-test") {
        report::self_test(std::path::Path::new("BENCHMARK.json"))
    } else if args.iter().any(|a| a == "--report") {
        report::report(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
