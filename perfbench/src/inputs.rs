//! Workload inputs, built by `rowpoly-gen` (the `gen` layer; its cost
//! is the benchmark's set-up time).
//!
//! Input shapes are fixed: every program is generated from a fixed
//! layout seed (its sizes, its definitions and the kind of every
//! operation in them), never from the run's seed. The run's seed picks
//! the value of every integer literal in every program, and, in the
//! runners, which literals the incr step and the edit trace rewrite.
//! Every seed therefore checks programs of the same shape at the same
//! cost: on a generated decoder of a few hundred lines the operation
//! mix alone moves inference time by a fifth from one generator seed to
//! the next, more than the regression bound.
//!
//! Every input carries its known answer, taken from how the generator
//! built it and never from the checker under test: the decoder and
//! guarded generators only emit well-typed programs, and a literal's
//! value does not change a type, so every definition must check, except
//! the one `(#bench_missing {})` definition appended to a seeded corpus
//! file, which must not.

use rowpoly_gen::{fig9_workloads, generate, generate_guarded, GenParams, GuardedParams};
use rowpoly_lang::{pretty_program, Program};
use rowpoly_obs::rng::SplitMix64;

/// The expression that breaks a definition: selecting a field that no
/// path ever adds is a β conflict with an explained diagnostic.
pub const BREAK: &str = "(#bench_missing {})";

/// Input sizes: the paper's, or a tiny scale for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Tiny,
}

impl Scale {
    fn lines(self, paper_lines: usize) -> usize {
        match self {
            Scale::Paper => paper_lines,
            Scale::Tiny => (paper_lines / 24).max(60),
        }
    }
}

/// One generated source with the definition names it must report.
#[derive(Clone, Debug)]
pub struct Source {
    pub name: String,
    pub text: String,
    pub defs: Vec<String>,
    /// The definition that must be rejected, if the input was seeded
    /// with one.
    pub broken: Option<String>,
}

impl Source {
    fn from_program(name: String, program: &Program, text: String) -> Source {
        Source {
            name,
            text,
            defs: program.defs.iter().map(|d| d.name.to_string()).collect(),
            broken: None,
        }
    }

    /// Appends a definition that must be rejected.
    fn seed_break(mut self) -> Source {
        let name = "bench_broken".to_string();
        self.text.push_str(&format!("\ndef {name} = {BREAK}\n"));
        self.defs.push(name.clone());
        self.broken = Some(name);
        self
    }
}

/// What one workload feeds to each of the three entry points.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Checked one-shot by `Session`.
    pub oneshot: Vec<Source>,
    /// Checked together by `check_sources`.
    pub files: Vec<Source>,
    /// Indices into `files` that get a literal edit in the `incr` step.
    pub incr: Vec<usize>,
    /// Opened and edited in `ServeEngine`.
    pub document: Source,
}

/// Seed of the programs' shapes and of the corpus layout (file sizes
/// and guarded-file shapes).
const LAYOUT_SEED: u64 = 0xD5C0DE;

/// The generator seed of the input numbered `id`.
fn shape_seed(id: u64) -> u64 {
    LAYOUT_SEED.wrapping_mul(31).wrapping_add(id)
}

/// `text` with every integer literal given a value drawn from `seed`.
fn relabel_literals(text: &str, seed: u64) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = String::with_capacity(text.len());
    let mut last = 0;
    for (start, end) in literal_spans(text) {
        out.push_str(&text[last..start]);
        out.push_str(&rng.gen_range(0..64u64).to_string());
        last = end;
    }
    out.push_str(&text[last..]);
    out
}

/// Input `id` of shape `program`, with literal values from `seed`.
fn shaped(name: String, program: &Program, id: u64, seed: u64) -> Source {
    let text = relabel_literals(
        &pretty_program(program),
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id,
    );
    Source::from_program(name, program, text)
}

fn decoder_params(seed: u64, groups: usize, with_sem: bool) -> GenParams {
    GenParams {
        seed,
        groups,
        decoders_per_group: 6,
        ops_per_decoder: 4,
        with_sem,
    }
}

/// The number of decoder groups that makes about `lines` source lines,
/// measured on programs from the layout seed. Lines grow linearly in
/// the group count; the slope is taken over several groups so that one
/// group's random draw does not set it.
fn groups_for(lines: usize, with_sem: bool) -> usize {
    const SPAN: usize = 8;
    let lines_of = |groups| {
        pretty_program(&generate(&decoder_params(LAYOUT_SEED, groups, with_sem)))
            .lines()
            .count()
    };
    let (base, far) = (lines_of(1), lines_of(1 + SPAN));
    let per_group = ((far - base) as f64 / SPAN as f64).max(1.0);
    1 + (lines.saturating_sub(base) as f64 / per_group).round() as usize
}

/// Decoder number `id`, of about `lines` lines, with literal values
/// from `seed`.
fn decoder(name: String, lines: usize, with_sem: bool, id: u64, seed: u64) -> Source {
    let groups = groups_for(lines, with_sem);
    let program = generate(&decoder_params(shape_seed(id), groups, with_sem));
    shaped(name, &program, id, seed)
}

/// Guarded program number `id`, with `modules` modules of
/// `fields_per_module` fields (three of each at the tiny scale).
fn guarded(
    name: String,
    scale: Scale,
    (modules, fields_per_module): (usize, usize),
    with_concat: bool,
    id: u64,
    seed: u64,
) -> Source {
    let (modules, fields_per_module) = match scale {
        Scale::Paper => (modules, fields_per_module),
        Scale::Tiny => (3, 3),
    };
    let program = generate_guarded(&GuardedParams {
        seed: shape_seed(id),
        modules,
        fields_per_module,
        with_concat,
    });
    shaped(name, &program, id, seed)
}

/// What the secondary one-shot step checks: a decoder the size of
/// Atmel AVR and a guarded program.
fn side_programs(scale: Scale, seed: u64) -> Vec<Source> {
    let lines = scale.lines(fig9_workloads()[0].paper_lines);
    vec![
        decoder("side_decoder.rp".to_string(), lines, false, 10, seed),
        guarded(
            "side_guarded.rp".to_string(),
            scale,
            (12, 4),
            true,
            11,
            seed,
        ),
    ]
}

/// What the secondary batch step checks: two small decoders (one with
/// Sem) and a small guarded program.
fn side_files(scale: Scale, seed: u64) -> Vec<Source> {
    let lines = scale.lines(600);
    vec![
        decoder("side/decoder_0.rp".to_string(), lines, false, 12, seed),
        decoder("side/decoder_1.rp".to_string(), lines, true, 13, seed),
        guarded("side/guarded.rp".to_string(), scale, (8, 3), true, 14, seed),
    ]
}

/// The document the secondary `ServeEngine` step edits: a decoder the
/// size of Atmel AVR.
fn side_document(scale: Scale, seed: u64) -> Source {
    let lines = scale.lines(fig9_workloads()[0].paper_lines);
    decoder("side_document.rp".to_string(), lines, false, 15, seed)
}

/// `fig9`: the four Fig. 9 decoder programs at paper size.
pub fn fig9(scale: Scale, seed: u64) -> Inputs {
    let oneshot = fig9_workloads()
        .iter()
        .zip(0..)
        .map(|(w, id)| {
            decoder(
                format!("{}.rp", w.name),
                scale.lines(w.paper_lines),
                w.with_sem,
                id,
                seed,
            )
        })
        .collect();
    Inputs {
        oneshot,
        files: side_files(scale, seed),
        incr: vec![0],
        document: side_document(scale, seed),
    }
}

/// Files in the `corpus` workload, by kind.
pub const CORPUS_DECODERS: usize = 32;
pub const CORPUS_GUARDED: usize = 12;
pub const CORPUS_SEEDED: usize = 4;
/// One file in this many gets a literal edit in the `incr` step.
pub const CORPUS_INCR_EVERY: usize = 8;

/// `corpus`: decoder files of a few hundred lines (with and without
/// Sem), guarded files with `when` and `@`, and a few decoder files
/// seeded with one definition that must be rejected.
pub fn corpus(scale: Scale, seed: u64) -> Inputs {
    let mut layout = SplitMix64::seed_from_u64(LAYOUT_SEED);
    let mut files = Vec::new();
    for i in 0..CORPUS_DECODERS + CORPUS_SEEDED {
        let lines = layout.gen_range(300..1200);
        let file = decoder(
            format!("src/decoder_{i:02}.rp"),
            scale.lines(lines),
            i % 2 == 1,
            100 + i as u64,
            seed,
        );
        files.push(if i >= CORPUS_DECODERS {
            file.seed_break()
        } else {
            file
        });
    }
    for i in 0..CORPUS_GUARDED {
        let shape = (layout.gen_range(8..24), layout.gen_range(3..6));
        files.push(guarded(
            format!("src/guarded_{i:02}.rp"),
            scale,
            shape,
            i % 2 == 0,
            200 + i as u64,
            seed,
        ));
    }
    let incr = (0..files.len()).step_by(CORPUS_INCR_EVERY).collect();
    let first_guarded = CORPUS_DECODERS + CORPUS_SEEDED;
    let oneshot = vec![files[0].clone(), files[first_guarded].clone()];
    let document = files[0].clone();
    Inputs {
        oneshot,
        files,
        incr,
        document,
    }
}

/// `edit`: one document the size of Intel x86 + Sem. The one-shot and
/// batch entry points check the small secondary inputs: a one-shot
/// check of the document takes seconds, too few samples fit in a run to
/// read it steadily, and `fig9` already checks a program of its size
/// one-shot.
pub fn edit(scale: Scale, seed: u64) -> Inputs {
    let w = fig9_workloads()[3];
    let document = decoder(
        "document.rp".to_string(),
        scale.lines(w.paper_lines),
        w.with_sem,
        300,
        seed,
    );
    Inputs {
        oneshot: side_programs(scale, seed),
        files: side_files(scale, seed),
        incr: vec![0],
        document,
    }
}

/// Byte ranges of standalone integer literals (digit runs not part of
/// an identifier), the targets of literal edits.
pub fn literal_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let embedded =
                start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
            if !embedded {
                spans.push((start, i));
            }
        } else {
            i += 1;
        }
    }
    spans
}

/// A different literal for the one in `text[start..end]`: its value
/// raised by `1 + bump` (mod 100).
pub fn next_literal(text: &str, (start, end): (usize, usize), bump: u64) -> String {
    let n: u64 = text[start..end].parse().unwrap_or(0);
    ((n + 1 + bump) % 100).to_string()
}

/// `text` with one literal, chosen by `pick`, rewritten by
/// [`next_literal`]: different bumps give different texts with the same
/// edit position.
pub fn edit_literal(text: &str, pick: u64, bump: u64) -> String {
    let spans = literal_spans(text);
    assert!(!spans.is_empty(), "generated source has no integer literal");
    let span = spans[(pick % spans.len() as u64) as usize];
    let mut out = text.to_string();
    out.replace_range(span.0..span.1, &next_literal(text, span, bump));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_spans_skip_identifier_digits() {
        let text = "def decode_0_1 x = x + 42\ndef y = -7";
        let spans: Vec<&str> = literal_spans(text)
            .into_iter()
            .map(|(s, e)| &text[s..e])
            .collect();
        assert_eq!(spans, ["42", "7"]);
        assert_ne!(edit_literal(text, 0, 0), text);
        assert_ne!(edit_literal(text, 0, 1), edit_literal(text, 0, 0));
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let a = corpus(Scale::Tiny, 3);
        let b = corpus(Scale::Tiny, 3);
        assert_eq!(a.files.len(), b.files.len());
        assert!(a.files.iter().zip(&b.files).all(|(x, y)| x.text == y.text));
        assert_eq!(
            a.files.iter().filter(|f| f.broken.is_some()).count(),
            CORPUS_SEEDED
        );
    }

    #[test]
    fn shapes_do_not_depend_on_the_seed() {
        let a = corpus(Scale::Tiny, 3);
        let b = corpus(Scale::Tiny, 4);
        let shape = |text: &str| relabel_literals(text, 0);
        assert!(a.files.iter().zip(&b.files).all(|(x, y)| x.defs == y.defs
            && x.text != y.text
            && shape(&x.text) == shape(&y.text)));
    }

    #[test]
    fn decoders_come_near_their_line_target() {
        for w in fig9_workloads() {
            let src = decoder(String::new(), w.paper_lines, w.with_sem, 0, 5);
            let lines = src.text.lines().count();
            assert!(
                lines.abs_diff(w.paper_lines) * 20 < w.paper_lines,
                "{}: {lines} lines for {}",
                w.name,
                w.paper_lines
            );
        }
    }
}
