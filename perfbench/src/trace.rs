//! In-memory span recorder for the traced run.
//!
//! The benchmark brackets every call it makes into a layer's public
//! function with a span: name, start, end, the enclosing span, and the
//! id of the request or step the call belongs to. Spans stay in memory
//! and are written once, as a Chrome trace-event file, when the run
//! ends. With tracing off the recorder keeps nothing, so the untraced
//! run pays only the `Instant` reads that time it anyway.

use std::time::{Duration, Instant};

use rowpoly_obs::json::Json;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The request or step this span belongs to.
    pub id: u64,
}

/// Span recorder; a disabled recorder records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` and returns its result with its wall time, recording a
    /// span named `name` when tracing is on.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, Duration) {
        let token = self.begin(name, id);
        let start = Instant::now();
        let r = f();
        let elapsed = start.elapsed();
        self.end(token);
        (r, elapsed)
    }

    /// Opens a span that encloses the spans opened before its
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, token: Option<usize>) {
        let Some(i) = token else { return };
        self.spans[i].end = self.origin.elapsed();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(i), "spans must close innermost first");
    }

    /// The trace as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per span, with its id and parent.
    pub fn to_chrome(&self) -> Json {
        let us = |d: Duration| Json::Float(d.as_secs_f64() * 1e6);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.to_string())),
                        ("ph", Json::Str("X".to_string())),
                        ("ts", us(s.start)),
                        ("dur", us(s.end - s.start)),
                        ("pid", Json::Int(1)),
                        ("tid", Json::Int(1)),
                        (
                            "args",
                            Json::obj(vec![
                                ("span", Json::Int(i as i64)),
                                ("id", Json::Int(s.id as i64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                                ),
                            ]),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("step", 7);
        let ((), _) = t.time("call", 7, || ());
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].id, 7);
        assert_eq!(t.spans[1].name, "call");

        let mut off = Tracer::new(false);
        let (v, _) = off.time("call", 0, || 5);
        assert_eq!(v, 5);
        assert!(off.spans.is_empty());
    }
}
