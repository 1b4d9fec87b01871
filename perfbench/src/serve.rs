//! Editing through `ServeEngine`: cold opens, then an open-loop trace
//! of keystrokes, each one `change_ranges` edit followed by one
//! `hover` at the edited position.
//!
//! Keystrokes are due at a fixed rate whatever the engine's speed. The
//! engine is single-threaded and answers in order, so requests run
//! back to back and each one's wait is computed from the measured
//! service times: it starts at `max(due, previous completion)`, and
//! its latency runs from its due time to its completion. Nothing
//! sleeps, so the generator is never late.
//!
//! The trace is replayed on [`REPLICAS`] engines opened on the same
//! document. Each replica makes the same keystrokes, so each does the
//! same work; a later replica trails the first by a fixed share of the
//! trace, so the replays of one keystroke run far apart in time. A
//! keystroke's service time is its median replay at the reference host
//! speed (see `calib`), and the schedule is computed from those.

use rowpoly_batch::graph::ProgramGraph;
use rowpoly_core::Session;
use rowpoly_lang::{parse_program, LineMap};
use rowpoly_obs::mem;
use rowpoly_obs::rng::SplitMix64;
use rowpoly_serve::{Analysis, DefStatus, Document, RangeEdit, ServeConfig, ServeEngine};

use crate::ctx::{Ctx, Layers, Sample};
use crate::inputs::{literal_spans, next_literal, Source, BREAK};
use crate::stats::median;

/// Of every ten keystrokes, this one breaks a definition and the next
/// one fixes it again; the other eight rewrite a literal.
const BREAK_SLOT: u64 = 5;

/// Engines that replay the keystroke trace.
pub const REPLICAS: usize = 2;

/// Keystroke `k` edits the literal at `frac(start + k * STRIDE)` of the
/// document's literals: a low-discrepancy sequence, so that every seed's
/// trace (and every tenth keystroke, the breaks) spreads evenly over the
/// document, and seeds differ in where the trace starts, not in how
/// evenly it covers the definitions.
const STRIDE: f64 = 0.618_033_988_749_895;

const PATH: &str = "document.rp";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Literal,
    Break,
    Fix,
}

/// One engine replaying the keystroke trace.
struct Replica {
    engine: Option<ServeEngine>,
    /// Where the last keystroke broke a definition, and the literal it
    /// replaced.
    broken: Option<(usize, String)>,
    /// Per keystroke replayed: the edit's and the hover's service time.
    edit: Vec<Sample>,
    hover: Vec<Sample>,
}

pub struct Serve<'a> {
    doc: &'a Source,
    /// Seconds between keystrokes.
    interval: f64,
    /// Keystrokes in the trace; every replica replays all of them.
    keystrokes: usize,
    /// Where the trace starts, as a share of the document's literals.
    start: f64,
    replicas: Vec<Replica>,
    /// Per keystroke: its kind and whether it ran traced.
    kinds: Vec<Kind>,
    traced: Vec<bool>,
    /// Per traced keystroke, from the first replica.
    rows: Vec<Layers>,
    /// Seconds per cold `open`.
    pub open: Vec<Sample>,
    /// Per keystroke: edit latency from its due time (seconds).
    pub edit_latency: Vec<f64>,
    /// Per keystroke: hover latency from its due time (seconds).
    pub hover_latency: Vec<f64>,
    /// Per keystroke: the edit's service time at the reference host
    /// speed.
    pub edit_service: Vec<Sample>,
    /// Edit queueing delays (seconds).
    pub queue_wait: Vec<f64>,
    /// Busy seconds and the end of the schedule.
    busy: f64,
    free_at: f64,
}

fn position(text: &str, offset: usize) -> (usize, usize) {
    let (line, col) = LineMap::new(text).position(offset as u32);
    (line - 1, col - 1)
}

/// The range edit replacing `text[start..end]` with `new`.
fn range_edit(text: &str, start: usize, end: usize, new: String) -> RangeEdit {
    let (start_line, start_character) = position(text, start);
    let (end_line, end_character) = position(text, end);
    RangeEdit {
        start_line,
        start_character,
        end_line,
        end_character,
        text: new,
    }
}

/// Checks that every definition of an opened document checks, under
/// the names the generator emitted.
fn verify_open(ctx: &mut Ctx, src: &Source, engine: &ServeEngine) {
    let ok = match engine.document(PATH).map(|d| &d.analysis) {
        Some(Analysis::Checked { defs }) => {
            defs.len() == src.defs.len()
                && defs
                    .iter()
                    .zip(&src.defs)
                    .all(|(d, n)| d.name == *n && matches!(d.status, DefStatus::Ok { .. }))
        }
        _ => false,
    };
    ctx.checker
        .check(ok, || format!("{}: open did not check clean", src.name));
}

/// A checked document's schemes by definition, or `None` when any
/// definition failed.
fn schemes(doc: &Document) -> Option<Vec<(String, String)>> {
    match &doc.analysis {
        Analysis::Checked { defs } => defs
            .iter()
            .map(|d| match &d.status {
                DefStatus::Ok { scheme, .. } => Some((d.name.clone(), scheme.clone())),
                _ => None,
            })
            .collect(),
        Analysis::ParseError { .. } => None,
    }
}

/// The document's schemes must equal a one-shot check of its text.
fn verify_parity(ctx: &mut Ctx, engine: &ServeEngine) {
    let doc = engine.document(PATH).expect("document is open");
    let served = schemes(doc);
    let oneshot: Option<Vec<(String, String)>> =
        Session::default().infer_source(&doc.source).ok().map(|r| {
            r.defs
                .iter()
                .map(|d| (d.name.to_string(), d.render(false)))
                .collect()
        });
    let same = served.is_some() && served == oneshot;
    ctx.checker.check(same, || {
        "final document's schemes differ from a one-shot check".to_string()
    });
}

impl<'a> Serve<'a> {
    /// A trace of `keystrokes` keystrokes at `rate_hz` on `doc`.
    pub fn new(doc: &'a Source, rate_hz: f64, keystrokes: usize, seed: u64) -> Serve<'a> {
        let replica = || Replica {
            engine: None,
            broken: None,
            edit: Vec::new(),
            hover: Vec::new(),
        };
        Serve {
            doc,
            interval: 1.0 / rate_hz,
            keystrokes,
            start: SplitMix64::seed_from_u64(seed ^ 0x5E_4E).next_u64() as f64 / u64::MAX as f64,
            replicas: (0..REPLICAS).map(|_| replica()).collect(),
            kinds: Vec::new(),
            traced: Vec::new(),
            rows: Vec::new(),
            open: Vec::new(),
            edit_latency: Vec::new(),
            hover_latency: Vec::new(),
            edit_service: Vec::new(),
            queue_wait: Vec::new(),
            busy: 0.0,
            free_at: 0.0,
        }
    }

    /// Keystroke replays done so far, over all replicas.
    pub fn replays(&self) -> usize {
        self.replicas.iter().map(|r| r.edit.len()).sum()
    }

    /// Whether some replica still has keystrokes to replay.
    pub fn keys_left(&self) -> bool {
        self.replays() < REPLICAS * self.keystrokes
    }

    /// The replica whose turn it is: replica `r` trails the first by
    /// `r / REPLICAS` of the trace, and among those free to go, the one
    /// furthest behind its place goes first.
    fn next_replica(&self) -> usize {
        let lag = |r: usize| r * self.keystrokes / REPLICAS;
        let lead = self.replicas[0].edit.len();
        (0..REPLICAS)
            .filter(|&r| {
                let done = self.replicas[r].edit.len();
                done < self.keystrokes
                    && (r == 0 || done + lag(r) <= lead || lead == self.keystrokes)
            })
            .min_by_key(|&r| (self.replicas[r].edit.len() + lag(r), r))
            .unwrap_or(0)
    }

    /// One cold open in a fresh engine. The first engines opened are the
    /// ones the replicas edit.
    pub fn open_step(&mut self, ctx: &mut Ctx, traced: bool) {
        let id = ctx.id();
        // The default configuration has no disk cache, so every open is
        // cold.
        let mut engine = ServeEngine::new(ServeConfig::default());
        let (_, t) = ctx.time(traced, "serve.open", id, || {
            engine.open(PATH, self.doc.text.clone(), 0)
        });
        self.open.push(ctx.sample(t, traced));
        verify_open(ctx, self.doc, &engine);
        if let Some(r) = self.replicas.iter_mut().find(|r| r.engine.is_none()) {
            r.engine = Some(engine);
        }
    }

    /// One keystroke replay: an edit, then a hover at the edited
    /// position. `traced` says per keystroke whether it runs traced.
    pub fn key_step(&mut self, ctx: &mut Ctx, traced: &dyn Fn(usize) -> bool) {
        let r = self.next_replica();
        let k = self.replicas[r].edit.len();
        let traced = traced(k);
        if self.replicas[r].engine.is_none() {
            self.open_step(ctx, traced);
        }
        let replica = &mut self.replicas[r];
        let engine = replica.engine.as_mut().expect("opened above");
        let id = ctx.id();
        let text = engine
            .document(PATH)
            .expect("document is open")
            .source
            .clone();
        let (kind, edit, at) = match (replica.broken.take(), k as u64 % 10) {
            (Some((start, lit)), _) => {
                let edit = range_edit(&text, start, start + BREAK.len(), lit);
                (Kind::Fix, edit, start)
            }
            (None, slot) => {
                let spans = literal_spans(&text);
                assert!(!spans.is_empty(), "document has no integer literal");
                let at = (self.start + k as f64 * STRIDE).fract();
                let (s, e) = spans[(at * spans.len() as f64) as usize];
                if slot == BREAK_SLOT {
                    replica.broken = Some((s, text[s..e].to_string()));
                    (Kind::Break, range_edit(&text, s, e, BREAK.to_string()), s)
                } else {
                    let new = next_literal(&text, (s, e), 0);
                    (Kind::Literal, range_edit(&text, s, e, new), s)
                }
            }
        };
        let step = ctx.begin(traced, "serve.keystroke", id);
        let acct = traced.then(mem::accounting_session);
        let (update, t_edit) = ctx.time(traced, "serve.change_ranges", id, || {
            engine.change_ranges(PATH, std::slice::from_ref(&edit), k as i64 + 1)
        });
        let edit_sample = ctx.sample(t_edit, traced);
        drop(acct);
        let update = update.expect("document is open");
        let (line, character) =
            position(&engine.document(PATH).expect("document is open").source, at);
        let (hover, t_hover) = ctx.time(traced, "serve.hover", id, || {
            engine.hover(PATH, line, character)
        });
        ctx.tracer.end(step);
        replica.edit.push(edit_sample);
        replica.hover.push(ctx.sample(t_hover, traced));

        let want_ok = kind != Kind::Break;
        let ok = update.ok == want_ok
            && hover.as_ref().is_some_and(|h| {
                if want_ok {
                    h.status == "ok" && h.scheme.is_some()
                } else {
                    h.status == "error"
                }
            });
        ctx.checker.check(ok, || {
            format!(
                "keystroke {k} ({kind:?}) on replica {r}: update ok = {}, hover = {:?}",
                update.ok,
                hover.as_ref().map(|h| h.status)
            )
        });
        if r > 0 {
            return;
        }
        self.kinds.push(kind);
        self.traced.push(traced);
        if traced {
            let s = &update.stats;
            let mut row = Layers::new();
            // Probes: the whole-document re-parse and graph rebuild
            // every revision pays today.
            let new_text = &engine.document(PATH).expect("document is open").source;
            let (program, t_parse) =
                ctx.time(true, "lang.parse_program", id, || parse_program(new_text));
            row.insert("lang.reparse_ms", t_parse.as_secs_f64() * 1e3);
            if let Ok(program) = program {
                let (_, t_graph) = ctx.time(true, "batch.graph.build", id, || {
                    ProgramGraph::build(&program)
                });
                row.insert("batch.graph_ms", t_graph.as_secs_f64() * 1e3);
            }
            row.insert("serve.slices_per_edit", s.slices as f64);
            row.insert("serve.parse_misses_per_edit", s.parse_misses as f64);
            row.insert("verdict_recomputed", s.verdict_recomputed as f64);
            row.insert("serve.defs_recomputed_per_edit", s.defs_recomputed as f64);
            row.insert("obs.mem.alloc_bytes_per_edit", s.mem.alloc_bytes as f64);
            row.insert("serve.memo_live_bytes", s.memo_live_bytes as f64);
            self.rows.push(row);
        }
    }

    /// Fixes a definition the last keystroke left broken (untimed),
    /// checks the final documents — every replica's equals the first's,
    /// whose schemes equal a one-shot check of its text — and computes
    /// the schedule from each keystroke's median replay at the reference
    /// host speed.
    pub fn finish(&mut self, ctx: &mut Ctx) {
        let version = self.keystrokes as i64 + 1;
        for replica in &mut self.replicas {
            let (Some(engine), Some((start, lit))) = (&mut replica.engine, replica.broken.take())
            else {
                continue;
            };
            let text = &engine.document(PATH).expect("document is open").source;
            let fix = range_edit(text, start, start + BREAK.len(), lit);
            let update = engine.change_ranges(PATH, &[fix], version);
            ctx.checker.check(update.is_ok_and(|u| u.ok), || {
                "the closing fix did not check".to_string()
            });
        }
        let engines: Vec<&ServeEngine> = self
            .replicas
            .iter()
            .filter_map(|r| r.engine.as_ref())
            .collect();
        if let Some(first) = engines.first() {
            verify_parity(ctx, first);
            for other in &engines[1..] {
                let same = other.document(PATH).map(|d| (&d.source, schemes(d)))
                    == first.document(PATH).map(|d| (&d.source, schemes(d)));
                ctx.checker
                    .check(same, || "replicas ended on different documents".to_string());
            }
        }

        let clock = &ctx.clock;
        let typical = |col: fn(&Replica) -> &Vec<Sample>, k: usize| {
            let replays: Vec<f64> = self
                .replicas
                .iter()
                .filter_map(|r| col(r).get(k).map(|s| clock.scaled(s)))
                .collect();
            median(&replays)
        };
        for k in 0..self.kinds.len() {
            let service = typical(|r| &r.edit, k);
            let hover = typical(|r| &r.hover, k);
            let due = k as f64 * self.interval;
            let start = due.max(self.free_at);
            self.queue_wait.push(start - due);
            self.free_at = start + service;
            self.edit_latency.push(self.free_at - due);
            self.edit_service.push(Sample {
                secs: service,
                traced: self.traced[k],
                end: self.replicas[0].edit[k].end,
            });
            // The editor asks for the hover right after sending the
            // edit, so both are due together and the hover queues
            // behind it.
            self.free_at += hover;
            self.hover_latency.push(self.free_at - due);
            self.busy += service + hover;
        }
    }

    /// Busy share of the schedule.
    fn utilization(&self) -> f64 {
        if self.free_at > 0.0 {
            self.busy / self.free_at
        } else {
            0.0
        }
    }

    /// Per-layer figures over the traced keystrokes (none when no
    /// keystroke traced). Call after [`Serve::finish`].
    pub fn layers(&self) -> Layers {
        let rows = &self.rows;
        if rows.is_empty() {
            return Layers::new();
        }
        let col = |k: &str| -> Vec<f64> { rows.iter().filter_map(|r| r.get(k).copied()).collect() };
        let mean = |k: &str| {
            let v = col(k);
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let ms = |v: &[f64]| median(&v.iter().map(|s| s * 1e3).collect::<Vec<_>>());
        // Wall times of the first replica's traced edits, unscaled like
        // the probes they are compared with.
        let traced_ms = |kind: Option<Kind>| {
            let v: Vec<f64> = self.replicas[0]
                .edit
                .iter()
                .zip(&self.kinds)
                .filter(|(s, &k)| s.traced && kind.is_none_or(|want| want == k))
                .map(|(s, _)| s.secs)
                .collect();
            ms(&v)
        };
        let service_p50 = traced_ms(None);
        let reparse = median(&col("lang.reparse_ms"));
        let graph = median(&col("batch.graph_ms"));
        let slices = col("serve.slices_per_edit").iter().sum::<f64>();
        let recomputed = col("verdict_recomputed").iter().sum::<f64>();
        let mut m = Layers::new();
        m.insert("serve.service_p50_ms", service_p50);
        m.insert("serve.queue_wait_p50_ms", ms(&self.queue_wait));
        m.insert("serve.utilization", self.utilization());
        m.insert("lang.reparse_ms", reparse);
        m.insert("batch.graph_ms", graph);
        m.insert("serve.other_ms", service_p50 - reparse - graph);
        m.insert("serve.slices_per_edit", mean("serve.slices_per_edit"));
        m.insert(
            "serve.parse_misses_per_edit",
            mean("serve.parse_misses_per_edit"),
        );
        m.insert(
            "serve.cutoff_ratio",
            if slices > 0.0 {
                1.0 - recomputed / slices
            } else {
                0.0
            },
        );
        m.insert(
            "serve.verdict_recomputed_per_edit",
            mean("verdict_recomputed"),
        );
        m.insert(
            "serve.defs_recomputed_per_edit",
            mean("serve.defs_recomputed_per_edit"),
        );
        m.insert("serve.break.service_p50_ms", traced_ms(Some(Kind::Break)));
        m.insert(
            "serve.memo_live_bytes",
            col("serve.memo_live_bytes").last().copied().unwrap_or(0.0),
        );
        m.insert(
            "obs.mem.alloc_bytes_per_edit",
            mean("obs.mem.alloc_bytes_per_edit"),
        );
        m
    }
}
