//! One-shot checks: `Session::infer_source` (parse + flow inference)
//! on every program, first with fields and then without.

use rowpoly_core::{Options, ProgramReport, Session, SessionError, Stats};
use rowpoly_lang::parse_program;
use rowpoly_obs::mem;

use crate::ctx::{Ctx, Layers, Sample};
use crate::inputs::Source;

pub struct OneShot<'a> {
    programs: &'a [Source],
    /// The program the next step checks.
    next: usize,
    /// The current sample's per-layer sums, while it is traced.
    pending: Layers,
    /// Per program, per sample: seconds with fields.
    pub with: Vec<Vec<Sample>>,
    /// The same, `track_fields = false`.
    pub without: Vec<Vec<Sample>>,
    /// Per traced sample.
    pub layers: Vec<Layers>,
}

/// Checks a one-shot result against the definitions the generator
/// emitted: every one checks, in source order.
pub fn verify(ctx: &mut Ctx, src: &Source, result: &Result<ProgramReport, SessionError>) {
    let names: Option<Vec<String>> = result
        .as_ref()
        .ok()
        .map(|r| r.defs.iter().map(|d| d.name.to_string()).collect());
    let ok = src.broken.is_none() && names.as_ref() == Some(&src.defs);
    ctx.checker.check(ok, || match result {
        Ok(_) => format!(
            "{}: one-shot definitions differ from the generated ones",
            src.name
        ),
        Err(e) => format!("{}: expected ok, one-shot check failed: {e}", src.name),
    });
}

fn phases(s: &Stats) -> f64 {
    (s.unify + s.applys + s.project + s.sat).as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Adds one with-fields report's counters to a sample's sums.
fn add_stats(sums: &mut Layers, s: &Stats) {
    let mut add = |k: &'static str, v: f64| *sums.entry(k).or_insert(0.0) += v;
    add("core.wall_s", s.wall.as_secs_f64());
    add("core.phases_s", phases(s));
    add("types.unify_s", s.unify.as_secs_f64());
    add("types.unify_calls", s.unify_calls as f64);
    add("types.applys_s", s.applys.as_secs_f64());
    add("types.applys_calls", s.applys_calls as f64);
    add("env_meet_hits", s.env_meet_hits as f64);
    add("env_meet_misses", s.env_meet_misses as f64);
    add("boolfun.project_s", s.project.as_secs_f64());
    add("boolfun.project.eliminated", s.project_resolutions as f64);
    add("project_fastpath", s.project_fastpath as f64);
    add("boolfun.project.fallback", s.project_fallback as f64);
    add("project_resolvents", s.project_resolvents as f64);
    add("project_subsumed", s.project_subsumed as f64);
    add("boolfun.sat_s", s.sat.as_secs_f64());
    add("boolfun.sat_checks", s.sat_calls as f64);
    let peak = sums.entry("boolfun.peak_clauses").or_insert(0.0);
    *peak = peak.max(s.peak_clauses as f64);
}

/// Turns a sample's raw sums into the published per-layer metrics.
fn derive(mut m: Layers) -> Layers {
    let get = |m: &Layers, k: &str| m.get(k).copied().unwrap_or(0.0);
    let wall = get(&m, "core.wall_s");
    let phases = get(&m, "core.phases_s");
    m.insert("core.other_s", wall - phases);
    m.insert("core.phase_coverage", ratio(phases, wall));
    m.insert(
        "types.env_meet_hit_ratio",
        ratio(
            get(&m, "env_meet_hits"),
            get(&m, "env_meet_hits") + get(&m, "env_meet_misses"),
        ),
    );
    m.insert(
        "boolfun.project.fastpath_ratio",
        ratio(
            get(&m, "project_fastpath"),
            get(&m, "boolfun.project.eliminated"),
        ),
    );
    m.insert(
        "boolfun.project.subsumed_ratio",
        ratio(get(&m, "project_subsumed"), get(&m, "project_resolvents")),
    );
    m.insert(
        "obs.mem.allocs_per_def",
        ratio(get(&m, "obs.mem.allocs"), get(&m, "defs")),
    );
    for k in [
        "core.wall_s",
        "core.phases_s",
        "env_meet_hits",
        "env_meet_misses",
        "project_fastpath",
        "project_resolvents",
        "project_subsumed",
        "defs",
    ] {
        m.remove(k);
    }
    m
}

impl<'a> OneShot<'a> {
    pub fn new(programs: &'a [Source]) -> OneShot<'a> {
        OneShot {
            programs,
            next: 0,
            pending: Layers::new(),
            with: vec![Vec::new(); programs.len()],
            without: vec![Vec::new(); programs.len()],
            layers: Vec::new(),
        }
    }

    /// Seconds the next step took the last time it ran (0 before then).
    pub fn next_secs(&self) -> f64 {
        let last = |col: &Vec<Vec<Sample>>| col[self.next].last().map_or(0.0, |s| s.secs);
        last(&self.with) + last(&self.without)
    }

    /// Samples completed: every program checked both ways.
    pub fn samples(&self) -> usize {
        self.with.last().map_or(0, Vec::len)
    }

    /// Per sample: seconds with fields summed over the programs.
    pub fn sums(&self) -> Vec<Sample> {
        (0..self.samples())
            .map(|i| Sample {
                secs: self.with.iter().map(|p| p[i].secs).sum(),
                traced: self.with[0][i].traced,
                end: self.with.last().map_or(0.0, |p| p[i].end),
            })
            .collect()
    }

    /// Each program's median at the reference host speed, summed over
    /// the programs.
    pub fn total(ctx: &Ctx, samples: &[Vec<Sample>]) -> f64 {
        samples.iter().map(|p| ctx.clock.median(p)).sum()
    }

    /// Checks the next program of the current sample, with fields and
    /// then without.
    pub fn step(&mut self, ctx: &mut Ctx, traced: bool) {
        let p = self.next;
        let src = &self.programs[p];
        let id = ctx.id();
        let step = ctx.begin(traced, "oneshot.program", id);
        let sums = &mut self.pending;
        for track_fields in [true, false] {
            let session = Session::new(Options {
                track_fields,
                ..Options::default()
            });
            // Memory accounting belongs to tracing: untraced samples run
            // with the counting allocator idle.
            let acct = (traced && track_fields).then(|| {
                let session = mem::accounting_session();
                mem::reset_peak();
                (session, mem::thread_mark())
            });
            let (result, t) = ctx.time(traced, "core.infer_source", id, || {
                session.infer_source(&src.text)
            });
            let col = if track_fields {
                &mut self.with
            } else {
                &mut self.without
            };
            col[p].push(ctx.sample(t, traced));
            if let Some((_session, mark)) = acct {
                let d = mem::thread_delta_since(&mark);
                *sums.entry("obs.mem.allocs").or_insert(0.0) += d.allocs as f64;
                *sums.entry("obs.mem.alloc_bytes").or_insert(0.0) += d.alloc_bytes as f64;
                *sums.entry("defs").or_insert(0.0) += src.defs.len() as f64;
                let peak = sums.entry("obs.mem.peak_bytes").or_insert(0.0);
                *peak = peak.max(mem::peak_bytes() as f64);
            }
            verify(ctx, src, &result);
            if let (true, Ok(r)) = (traced, &result) {
                if track_fields {
                    add_stats(sums, &r.stats);
                } else {
                    *sums.entry("core.nofields.other_s").or_insert(0.0) +=
                        r.stats.wall.as_secs_f64() - phases(&r.stats);
                }
            }
        }
        if traced {
            // Probe: what parsing alone costs on the same input.
            let (parsed, t) = ctx.time(true, "lang.parse_program", id, || parse_program(&src.text));
            assert!(parsed.is_ok(), "{}: generated source must parse", src.name);
            *sums.entry("lang.parse_s").or_insert(0.0) += t.as_secs_f64();
        }
        ctx.tracer.end(step);
        self.next = (p + 1) % self.programs.len();
        if self.next == 0 {
            let sums = std::mem::take(&mut self.pending);
            if traced {
                self.layers.push(derive(sums));
            }
        }
    }
}
