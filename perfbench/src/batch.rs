//! Batch checks: `check_sources` with an on-disk cache, in cycles of
//! three kinds of check — cold (empty cache), warm (unchanged files) and
//! incr (a literal edit in some files). Warm and incr are cheap, so each
//! repeats within a cycle and gets more samples than cold. A cycle runs
//! back to back: cheap checks right after another entry point's large
//! allocations read the allocator's and caches' state more than their
//! own cost.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rowpoly_batch::cache::Cache;
use rowpoly_batch::graph::ProgramGraph;
use rowpoly_batch::{check_sources, BatchOptions, BatchReport, FileInput, Verdict};
use rowpoly_lang::parse_program;

use crate::ctx::{Ctx, Layers, Sample};
use crate::inputs::{edit_literal, Source};

/// Warm and incr checks per cycle. Each incr check writes the same
/// literals with other values, so each misses the cache on the same
/// files and does the same work.
const REPEATS: usize = 2;

pub struct Batch<'a> {
    files: &'a [Source],
    /// Per incr check of a cycle: the files with its literal edits.
    edited: Vec<Vec<Source>>,
    cache_dir: PathBuf,
    pub cold: Vec<Sample>,
    pub warm: Vec<Sample>,
    pub incr: Vec<Sample>,
    /// Per traced cycle.
    pub layers: Vec<Layers>,
}

/// Checks every file's verdicts against the generator's answers: each
/// definition checks, except a seeded one, which must be rejected.
fn verify(ctx: &mut Ctx, step: &str, files: &[Source], report: &BatchReport) {
    let by_path: BTreeMap<&str, _> = report.files.iter().map(|f| (f.path.as_str(), f)).collect();
    for src in files {
        let Some(file) = by_path.get(src.name.as_str()) else {
            ctx.checker
                .check(false, || format!("{step}: no report for {}", src.name));
            continue;
        };
        let ok = match &file.defs {
            Err(_) => false,
            Ok(defs) => {
                defs.len() == src.defs.len()
                    && defs.iter().zip(&src.defs).all(|(d, name)| {
                        let must_fail = src.broken.as_deref() == Some(name.as_str());
                        d.name == *name
                            && if must_fail {
                                matches!(d.verdict, Verdict::Error { .. })
                            } else {
                                matches!(d.verdict, Verdict::Ok { .. })
                            }
                    })
            }
        };
        ctx.checker
            .check(ok, || format!("{step}: wrong verdicts for {}", src.name));
    }
}

fn inputs(files: &[Source]) -> Vec<FileInput> {
    files
        .iter()
        .map(|f| FileInput {
            path: f.name.clone(),
            source: f.text.clone(),
        })
        .collect()
}

/// Bytes the cache occupies on disk.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn add(m: &mut Layers, k: &'static str, v: f64) {
    *m.entry(k).or_insert(0.0) += v;
}

/// The per-layer numbers a profiled cold report carries.
fn profile_layers(m: &mut Layers, cold: &BatchReport) {
    let Some(p) = &cold.profile else { return };
    let n = p.workers.len().max(1) as f64;
    let mean = |f: fn(&rowpoly_obs::WorkerUtil) -> f64| p.workers.iter().map(f).sum::<f64>() / n;
    m.insert("batch.pool.busy_pct", mean(|u| u.busy_pct()));
    m.insert("batch.pool.idle_pct", mean(|u| u.idle_pct()));
    m.insert("batch.pool.lock_wait_pct", mean(|u| u.lock_wait_pct()));
    m.insert("batch.pool.steal_scan_pct", mean(|u| u.search_pct()));
    m.insert("batch.critical_path_ratio", p.critical.ratio());
    let mut other_ns = 0i64;
    for job in &p.jobs {
        other_ns += job.dur_ns as i64;
        for &(phase, ns) in &job.phases {
            other_ns -= ns as i64;
            let key = match phase {
                "unify" => "batch.job.unify_s",
                "applys" => "batch.job.applys_s",
                "project" => "batch.job.project_s",
                "sat" => "batch.job.sat_s",
                _ => continue,
            };
            add(m, key, ns as f64 / 1e9);
        }
    }
    for key in [
        "batch.job.unify_s",
        "batch.job.applys_s",
        "batch.job.project_s",
        "batch.job.sat_s",
    ] {
        m.entry(key).or_insert(0.0);
    }
    m.insert("batch.job.other_s", other_ns as f64 / 1e9);
}

/// One `check_sources` call, timed and checked.
fn check(
    ctx: &mut Ctx,
    traced: bool,
    id: u64,
    options: &BatchOptions,
    step: &str,
    sources: &[Source],
    col: &mut Vec<Sample>,
) -> BatchReport {
    let input = inputs(sources);
    let (report, t) = ctx.time(traced, "batch.check_sources", id, || {
        check_sources(input, options)
    });
    col.push(ctx.sample(t, traced));
    verify(ctx, step, sources, &report);
    report
}

impl<'a> Batch<'a> {
    pub fn new(files: &'a [Source], incr: &[usize], cache_dir: PathBuf, seed: u64) -> Batch<'a> {
        let edited = (0..REPEATS as u64)
            .map(|bump| {
                let mut edited = files.to_vec();
                for (n, &i) in incr.iter().enumerate() {
                    let pick = seed.wrapping_add(n as u64 * 7919);
                    edited[i].text = edit_literal(&files[i].text, pick, bump);
                }
                edited
            })
            .collect();
        Batch {
            files,
            edited,
            cache_dir,
            cold: Vec::new(),
            warm: Vec::new(),
            incr: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// One cycle: cold, then `REPEATS` warm checks, then `REPEATS` incr
    /// checks.
    pub fn step(&mut self, ctx: &mut Ctx, traced: bool) {
        let id = ctx.id();
        let options = BatchOptions {
            use_cache: true,
            cache_dir: self.cache_dir.clone(),
            profile: traced,
            ..BatchOptions::in_memory(crate::nproc())
        };
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        let cold = check(
            ctx,
            traced,
            id,
            &options,
            "cold",
            self.files,
            &mut self.cold,
        );
        let cold_text = cold.render();
        let mut m = Layers::new();
        for i in 0..REPEATS {
            let warm = check(
                ctx,
                traced,
                id,
                &options,
                "warm",
                self.files,
                &mut self.warm,
            );
            let same = warm.render() == cold_text;
            ctx.checker
                .check(same, || "cold and warm reports differ".to_string());
            if traced && i == 0 {
                let w = &warm.stats;
                let looked_up = (w.cache_hits + w.cache_misses).max(1) as f64;
                m.insert(
                    "batch.warm.cache_hit_ratio",
                    w.cache_hits as f64 / looked_up,
                );
                self.probe(ctx, id, &mut m);
            }
        }
        for (i, edited) in self.edited.iter().enumerate() {
            let incr = check(ctx, traced, id, &options, "incr", edited, &mut self.incr);
            if traced && i == 0 {
                m.insert("batch.incr.cache_misses", incr.stats.cache_misses as f64);
            }
        }
        if traced {
            profile_layers(&mut m, &cold);
            m.insert("batch.steals", cold.stats.steals as f64);
            self.layers.push(m);
        }
    }

    /// Probes: the layers `check_sources` runs before inference, timed
    /// by the benchmark on the same inputs and the cache as warm checks
    /// load it.
    fn probe(&self, ctx: &mut Ctx, id: u64, m: &mut Layers) {
        for src in self.files {
            let (program, t) =
                ctx.time(true, "lang.parse_program", id, || parse_program(&src.text));
            add(m, "lang.parse_s", t.as_secs_f64());
            let program = program.expect("generated source parses");
            let (_, t) = ctx.time(true, "batch.graph.build", id, || {
                ProgramGraph::build(&program)
            });
            add(m, "batch.graph_s", t.as_secs_f64());
        }
        let (cache, t) = ctx.time(true, "batch.cache.load", id, || {
            Cache::load(&self.cache_dir)
        });
        assert!(!cache.is_empty(), "cold run must have written the cache");
        m.insert("batch.cache.load_s", t.as_secs_f64());
        m.insert("batch.cache.file_bytes", dir_bytes(&self.cache_dir) as f64);
    }
}
