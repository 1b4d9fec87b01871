//! The three workloads. Each one drives all three entry points on its
//! own inputs, so every workload reports every metric; the workload's
//! main entry point gets most of each round, and the other two a few
//! cheap samples.

use std::path::Path;
use std::time::{Duration, Instant};

use rowpoly_obs::json::Json;
use rowpoly_obs::mem;

use crate::batch::Batch;
use crate::ctx::{median_layers, overhead, Ctx, Layers};
use crate::inputs::{self, Inputs, Scale};
use crate::oneshot::OneShot;
use crate::serve::Serve;
use crate::stats::{median, tail};

/// Keystrokes per second in the open-loop edit trace. Fixed, not
/// derived from measured service times: at this rate the engine is
/// busy about a third of the time on the `edit` document.
pub const EDIT_RATE_HZ: f64 = 4.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig9,
    Corpus,
    Edit,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig9, Workload::Corpus, Workload::Edit];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9 => "fig9",
            Workload::Corpus => "corpus",
            Workload::Edit => "edit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn inputs(self, scale: Scale, seed: u64) -> Inputs {
        match self {
            Workload::Fig9 => inputs::fig9(scale, seed),
            Workload::Corpus => inputs::corpus(scale, seed),
            Workload::Edit => inputs::edit(scale, seed),
        }
    }
}

/// How to run one workload.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Working directory for temporary files (the batch cache).
    pub work_dir: std::path::PathBuf,
}

/// A finished run: its metrics and its known-answer tally.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Context for reports: sample counts, the tail percentile.
    pub info: Json,
    pub tracer: crate::trace::Tracer,
}

/// The unit a metric is reported in, from its name.
pub fn unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.contains("bytes") {
        "bytes"
    } else if name.ends_with("ratio")
        || name.ends_with("coverage")
        || name.ends_with("utilization")
        || name.ends_with("overhead")
    {
        "ratio"
    } else {
        "count"
    }
}

/// The entry points a run steps, in the order of [`Plan`]'s arrays. A
/// set-up step generates the inputs again, timed, and drops them; a
/// batch step is a whole cycle of checks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Entry {
    Setup,
    OneShot,
    Batch,
    Open,
    Keystroke,
}

const ENTRIES: [Entry; 5] = [
    Entry::Setup,
    Entry::OneShot,
    Entry::Batch,
    Entry::Open,
    Entry::Keystroke,
];

/// How a run shares its measuring time. Each step goes to the entry
/// point furthest below its share of the time spent so far, so every
/// entry point's samples spread evenly over the run (the host's speed
/// drifts within a run) and a run lasts about `--seconds` however fast
/// the host is.
struct Plan {
    /// Share of the time per entry point.
    share: [f64; 5],
    /// Fewest set-ups, complete one-shot samples, batch cycles and
    /// opens, which carry a run past `--seconds` until it has them.
    min: [usize; 4],
    /// Keystrokes in the edit trace. Exact, so that `edit_tail_ms` reads
    /// the same percentile and the memo grows the same on every run.
    keystrokes: usize,
}

impl Workload {
    fn plan(self) -> Plan {
        match self {
            // One-shot samples are long (all four programs, both ways);
            // the others check small inputs and get a tenth or less each.
            Workload::Fig9 => Plan {
                share: [0.03, 0.75, 0.07, 0.06, 0.09],
                min: [5, 3, 3, 3],
                keystrokes: 300,
            },
            Workload::Corpus => Plan {
                share: [0.04, 0.06, 0.76, 0.06, 0.08],
                min: [5, 2, 4, 3],
                keystrokes: 300,
            },
            // Opens of the large document are long, so they get more of
            // the time than on the other workloads.
            Workload::Edit => Plan {
                share: [0.02, 0.08, 0.04, 0.34, 0.52],
                min: [5, 2, 2, 4],
                keystrokes: 100,
            },
        }
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut ctx = Ctx::new(cfg.trace);
    let id = ctx.id();
    let (inputs, t) = ctx.time(cfg.trace, "gen.inputs", id, || {
        cfg.workload.inputs(cfg.scale, cfg.seed)
    });
    let mut setup = vec![ctx.sample(t, cfg.trace)];

    let mut one = OneShot::new(&inputs.oneshot);
    let mut bat = Batch::new(
        &inputs.files,
        &inputs.incr,
        cfg.work_dir.join("cache"),
        cfg.seed,
    );
    let plan = cfg.workload.plan();
    let mut srv = Serve::new(&inputs.document, EDIT_RATE_HZ, plan.keystrokes, cfg.seed);
    // In the traced run the workload's main entry point alternates untraced
    // and traced samples, which gives the tracing overhead; the others
    // trace every sample.
    let traced = |main: bool, sample: usize| cfg.trace && (!main || sample % 2 == 1);
    let w = cfg.workload;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut spent = [0.0f64; 5];
    // Each entry point's last step, in seconds: once an entry point has
    // its minimum, it starts no step that would run past the deadline.
    // (A one-shot step's length depends on its program, so it is taken
    // from that program's last step.)
    let mut last = [0.0f64; 5];
    loop {
        let taken = [setup.len(), one.samples(), bat.cold.len(), srv.open.len()];
        let short = |e: usize| match ENTRIES[e] {
            Entry::Keystroke => srv.keys_left(),
            _ => taken[e] < plan.min[e],
        };
        let done = |e: usize| ENTRIES[e] == Entry::Keystroke && !short(e);
        let now = Instant::now();
        let fits = |e: usize| {
            let secs = match ENTRIES[e] {
                Entry::OneShot => one.next_secs(),
                _ => last[e],
            };
            now + Duration::from_secs_f64(secs) < deadline
        };
        let Some(e) = (0..ENTRIES.len())
            .filter(|&e| !done(e) && (short(e) || fits(e)))
            .min_by(|&a, &b| (spent[a] / plan.share[a]).total_cmp(&(spent[b] / plan.share[b])))
        else {
            break;
        };
        ctx.clock.tick();
        let start = Instant::now();
        match ENTRIES[e] {
            Entry::Setup => {
                let id = ctx.id();
                let (again, t) = ctx.time(cfg.trace, "gen.inputs", id, || {
                    cfg.workload.inputs(cfg.scale, cfg.seed)
                });
                setup.push(ctx.sample(t, cfg.trace));
                drop(again);
            }
            Entry::OneShot => one.step(&mut ctx, traced(w == Workload::Fig9, one.samples())),
            Entry::Batch => bat.step(&mut ctx, traced(w == Workload::Corpus, bat.cold.len())),
            Entry::Open => srv.open_step(&mut ctx, traced(w == Workload::Edit, srv.open.len())),
            Entry::Keystroke => srv.key_step(&mut ctx, &|k| traced(w == Workload::Edit, k)),
        }
        last[e] = start.elapsed().as_secs_f64();
        spent[e] += last[e];
    }
    ctx.clock.calibrate();
    srv.finish(&mut ctx);
    let main_samples = match w {
        Workload::Fig9 => one.sums(),
        Workload::Corpus => bat.cold.clone(),
        Workload::Edit => srv.edit_service.clone(),
    };

    let (edit_tail, tail_pct) = tail(&srv.edit_latency, 10);
    let (calibrations, calib_median) = ctx.clock.summary();
    let info = Json::obj(vec![
        ("workload", Json::Str(cfg.workload.name().to_string())),
        ("seed", Json::Int(cfg.seed as i64)),
        ("nproc", Json::Int(crate::nproc() as i64)),
        ("threads", Json::Int(crate::nproc() as i64)),
        ("edit_rate_hz", Json::Float(EDIT_RATE_HZ)),
        ("setup_samples", Json::Int(setup.len() as i64)),
        ("oneshot_samples", Json::Int(one.samples() as i64)),
        ("batch_cycles", Json::Int(bat.cold.len() as i64)),
        (
            "warm_incr_samples",
            Json::Int(bat.warm.len().min(bat.incr.len()) as i64),
        ),
        ("opens", Json::Int(srv.open.len() as i64)),
        ("keystrokes", Json::Int(srv.edit_latency.len() as i64)),
        (
            "keystroke_replicas",
            Json::Int(crate::serve::REPLICAS as i64),
        ),
        ("edit_tail_percentile", Json::Float(tail_pct)),
        ("edit_tail_beyond", Json::Int(10)),
        ("calibrations", Json::Int(calibrations as i64)),
        ("calib_median_s", Json::Float(calib_median)),
        ("calib_ref_s", Json::Float(crate::calib::REF_SECS)),
    ]);

    let metrics: Vec<(&'static str, f64)> = if !cfg.trace {
        vec![
            ("setup_s", ctx.clock.median(&setup)),
            ("infer_s", OneShot::total(&ctx, &one.with)),
            ("infer_nofields_s", OneShot::total(&ctx, &one.without)),
            ("cold_check_s", ctx.clock.median(&bat.cold)),
            ("warm_check_s", ctx.clock.median(&bat.warm)),
            ("incr_check_s", ctx.clock.median(&bat.incr)),
            ("open_s", ctx.clock.median(&srv.open)),
            ("edit_p50_ms", median(&srv.edit_latency) * 1e3),
            ("edit_tail_ms", edit_tail * 1e3),
            ("hover_p50_ms", median(&srv.hover_latency) * 1e3),
            (
                "peak_rss_mb",
                mem::peak_rss_bytes().unwrap_or(0) as f64 / 1e6,
            ),
        ]
    } else {
        let mut m: Layers = median_layers(&one.layers);
        let batch_layers = median_layers(&bat.layers);
        let serve_layers = srv.layers();
        let parse_s = match w {
            Workload::Fig9 => m.get("lang.parse_s").copied(),
            Workload::Corpus => batch_layers.get("lang.parse_s").copied(),
            Workload::Edit => serve_layers.get("lang.reparse_ms").map(|ms| ms / 1e3),
        };
        m.extend(batch_layers);
        m.extend(serve_layers);
        m.insert("lang.parse_s", parse_s.unwrap_or(0.0));
        m.insert("obs.trace_overhead", overhead(&main_samples));
        m.into_iter().collect()
    };

    Outcome {
        metrics,
        attempted: ctx.checker.attempted,
        failed: ctx.checker.failed,
        info,
        tracer: ctx.tracer,
    }
}

/// Writes the run's spans as a Chrome trace-event file.
pub fn write_trace(out: &Outcome, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out.tracer.to_chrome().render())
}
