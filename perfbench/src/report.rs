//! The one-command report over every workload, and the benchmark's
//! self-test.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use rowpoly_obs::json::{self, Json};

use crate::ctx::Ctx;
use crate::inputs::{Scale, Source, BREAK};
use crate::workload::{self, Config, Workload, EDIT_RATE_HZ};
use crate::{nproc, parse, DEFAULT_SECONDS, DEFAULT_SEED, HELD_OUT_SEED, OUT_DIR};

/// Prefix of the line that carries a run's context (sample counts,
/// the tail percentile) ahead of its result line.
pub const INFO_PREFIX: &str = "perfbench-info";

/// Runs `perfbench --workload …` in a child process (so peak RSS is
/// the workload's own) and returns its info and result objects.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix(INFO_PREFIX))
        .ok_or("no info line")?;
    let result = stdout.lines().last().ok_or("no result line")?;
    Ok((json::parse(info.trim())?, json::parse(result)?))
}

/// `--report`: every workload, untraced then traced, one row per
/// workload and metric. Fails when any verdict was wrong.
pub fn report(args: &[String]) -> Result<(), String> {
    let seed = parse(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = parse(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    println!(
        "perfbench: seed {seed} (held-out seed {HELD_OUT_SEED}), nproc {}, threads {}, edit rate {EDIT_RATE_HZ}/s, {seconds} s per run",
        nproc(),
        nproc()
    );
    println!(
        "{:<8} {:<36} {:>16} {:<6} samples",
        "workload", "metric", "value", "unit"
    );
    let mut failed_total = 0;
    for w in Workload::ALL {
        let mut attempted = 0;
        let mut failed = 0;
        for trace in [false, true] {
            let (info, result) = child(w, seed, seconds, trace)?;
            attempted += result.get("attempted").and_then(Json::as_i64).unwrap_or(0);
            failed += result.get("failed").and_then(Json::as_i64).unwrap_or(0);
            let count = |k: &str| info.get(k).and_then(Json::as_i64).unwrap_or(0);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                return Err(format!("{}: result has no metrics", w.name()));
            };
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
                let samples = match name.as_str() {
                    "setup_s" => format!("{}", count("setup_samples")),
                    "infer_s" | "infer_nofields_s" => format!("{}", count("oneshot_samples")),
                    "cold_check_s" => format!("{}", count("batch_cycles")),
                    "warm_check_s" | "incr_check_s" => {
                        format!("{}", count("warm_incr_samples"))
                    }
                    "open_s" => format!("{}", count("opens")),
                    "edit_tail_ms" => format!(
                        "{} (p{:.1}: {} beyond)",
                        count("keystrokes"),
                        info.get("edit_tail_percentile")
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0),
                        count("edit_tail_beyond")
                    ),
                    "edit_p50_ms" | "hover_p50_ms" => format!("{}", count("keystrokes")),
                    _ => String::new(),
                };
                println!(
                    "{:<8} {:<36} {:>16.6} {:<6} {}",
                    w.name(),
                    name,
                    value,
                    unit,
                    samples
                );
            }
        }
        let frac = failed as f64 / attempted.max(1) as f64;
        println!(
            "{:<8} {:<36} {:>16.6} {:<6} {attempted}",
            w.name(),
            "failed_frac",
            frac,
            "ratio"
        );
        failed_total += failed;
    }
    if failed_total > 0 {
        return Err(format!("{failed_total} wrong answers at seed {seed}"));
    }
    Ok(())
}

/// Names and units listed under `key` in BENCHMARK.json.
fn listed(bench: &Json, key: &str) -> Result<BTreeMap<String, String>, String> {
    let items = bench
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    Ok(items
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            Some((name, unit))
        })
        .collect())
}

/// Runs every workload at a tiny scale in both trace modes and
/// compares the metrics it emits with BENCHMARK.json.
fn check_every_workload(bench: &Json, work_dir: &Path) -> Result<(), String> {
    for w in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = listed(bench, key)?;
            let out = workload::run(&Config {
                workload: w,
                seed: DEFAULT_SEED,
                seconds: 0.2,
                trace,
                scale: Scale::Tiny,
                work_dir: work_dir.to_path_buf(),
            });
            let got: BTreeMap<String, String> = out
                .metrics
                .iter()
                .map(|&(n, _)| (n.to_string(), workload::unit(n).to_string()))
                .collect();
            if got != want {
                let differ: Vec<_> = want
                    .iter()
                    .filter(|(k, u)| got.get(*k) != Some(u))
                    .map(|(k, _)| k)
                    .chain(got.keys().filter(|k| !want.contains_key(*k)))
                    .collect();
                return Err(format!(
                    "{} ({key}): metrics missing, unlisted or in another unit than in BENCHMARK.json: {differ:?}",
                    w.name()
                ));
            }
            if out.failed > 0 || out.attempted == 0 {
                return Err(format!(
                    "{} ({key}): {} of {} checks failed",
                    w.name(),
                    out.failed,
                    out.attempted
                ));
            }
            println!(
                "self-test: {} {key}: {} metrics, {} checks passed",
                w.name(),
                got.len(),
                out.attempted
            );
        }
    }

    Ok(())
}

/// `--self-test`: every workload at a tiny scale, both trace modes,
/// must emit exactly the metrics BENCHMARK.json names, with their
/// units, and answer every check right; and a planted wrong answer
/// must be caught.
pub fn self_test(benchmark_json: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("cannot read {}: {e}", benchmark_json.display()))?;
    let bench = json::parse(&text)?;
    let workloads = listed(&bench, "workloads")?;
    let listed_names: BTreeSet<&str> = workloads.keys().map(String::as_str).collect();
    let ours: BTreeSet<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if listed_names != ours {
        return Err(format!(
            "BENCHMARK.json workloads {listed_names:?} != {ours:?}"
        ));
    }
    let work_dir = Path::new(OUT_DIR).join(format!("selftest-{}", std::process::id()));
    let checked = check_every_workload(&bench, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    checked?;

    // A source that cannot check, labelled as one that must: the
    // checker has to count it as a failure.
    let planted = Source {
        name: "planted.rp".to_string(),
        text: format!("def fine = 1\ndef wrong = {BREAK}\n"),
        defs: vec!["fine".to_string(), "wrong".to_string()],
        broken: None,
    };
    let mut ctx = Ctx::new(false);
    crate::oneshot::OneShot::new(&[planted]).step(&mut ctx, false);
    let frac = ctx.checker.failed as f64 / ctx.checker.attempted.max(1) as f64;
    if frac <= 0.0 {
        return Err("a planted wrong answer left failed_frac at 0".to_string());
    }
    println!("self-test: planted wrong answer raised failed_frac to {frac}");
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes_against_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        super::self_test(&path).expect("self-test");
    }
}
