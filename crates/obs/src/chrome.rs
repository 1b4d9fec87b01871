//! Chrome trace-event export.
//!
//! Produces the JSON Object Format understood by `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev): a `traceEvents` array of
//! duration events (`"ph": "B"`/`"E"`) with microsecond timestamps,
//! preceded by process/thread metadata events. Counters from the
//! metrics registry are appended as `"ph": "C"` counter samples so the
//! viewer can chart them alongside the spans.

use std::io::Write;
use std::path::Path;

use crate::collector::{EventKind, Snapshot};
use crate::json::Json;
use crate::timeline::{TimelineEventKind, TimelineSnapshot};

/// Renders a snapshot as a Chrome trace-event JSON document.
pub fn chrome_trace_json(snap: &Snapshot) -> String {
    let mut events: Vec<Json> = Vec::with_capacity(snap.events.len() + 8);

    events.push(Json::obj(vec![
        ("name", Json::Str("process_name".to_string())),
        ("ph", Json::Str("M".to_string())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(0)),
        ("ts", Json::Int(0)),
        (
            "args",
            Json::obj(vec![("name", Json::Str("rowpoly".to_string()))]),
        ),
    ]));

    let last_ts = snap.events.last().map_or(0, |e| e.ts_ns);
    for event in &snap.events {
        events.push(Json::obj(vec![
            ("name", Json::Str(event.name.clone())),
            ("cat", Json::Str("rowpoly".to_string())),
            (
                "ph",
                Json::Str(
                    match event.kind {
                        EventKind::Begin => "B",
                        EventKind::End => "E",
                    }
                    .to_string(),
                ),
            ),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(event.tid as i64)),
            // Microseconds with nanosecond precision kept in the
            // fraction, as the trace-event spec allows.
            ("ts", Json::Float(event.ts_ns as f64 / 1000.0)),
        ]));
    }

    // Counter samples land after the last span edge so `ts` stays
    // monotone over the whole document.
    for (name, value) in snap.metrics.counters() {
        events.push(Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("cat", Json::Str("rowpoly".to_string())),
            ("ph", Json::Str("C".to_string())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(0)),
            ("ts", Json::Float(last_ts as f64 / 1000.0)),
            (
                "args",
                Json::Obj(vec![("value".to_string(), Json::Int(value as i64))]),
            ),
        ]));
    }

    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
    .render()
}

/// Writes the Chrome trace for `snap` to `path`.
pub fn write_chrome_trace(snap: &Snapshot, path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(chrome_trace_json(snap).as_bytes())?;
    file.write_all(b"\n")
}

/// Renders a parallel-run timeline snapshot as a Chrome trace-event
/// document with one named `tid` track per worker.
///
/// Track layout is stable: worker `w` maps to tid `w + 1` (tid 0 is
/// reserved for the single-track exporter above), each track opens
/// with a `thread_name` metadata record naming it `worker w`, and
/// steal / cache-hit / wave-boundary markers appear as thread-scoped
/// instant events (`"ph": "i"`, `"s": "t"`). Events are emitted in
/// global timestamp order so `ts` is monotone over the document.
pub fn chrome_trace_timelines(snap: &TimelineSnapshot) -> String {
    let n_events: usize = snap.workers.iter().map(|w| w.events.len()).sum();
    let mut events: Vec<Json> = Vec::with_capacity(n_events + snap.workers.len() + 1);

    events.push(Json::obj(vec![
        ("name", Json::Str("process_name".to_string())),
        ("ph", Json::Str("M".to_string())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(0)),
        ("ts", Json::Int(0)),
        (
            "args",
            Json::obj(vec![("name", Json::Str("rowpoly".to_string()))]),
        ),
    ]));
    for w in &snap.workers {
        events.push(Json::obj(vec![
            ("name", Json::Str("thread_name".to_string())),
            ("ph", Json::Str("M".to_string())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(w.worker() as i64 + 1)),
            ("ts", Json::Int(0)),
            (
                "args",
                Json::obj(vec![("name", Json::Str(format!("worker {}", w.worker())))]),
            ),
        ]));
    }

    // Merge all worker tracks into one globally ts-ordered stream.
    // Each track is already non-decreasing, so a stable sort by ts
    // preserves per-track B/E nesting order.
    let mut merged: Vec<(u64, i64, &crate::timeline::TimelineEvent)> = Vec::with_capacity(n_events);
    for w in &snap.workers {
        let tid = w.worker() as i64 + 1;
        for e in &w.events {
            merged.push((e.t_ns, tid, e));
        }
    }
    merged.sort_by_key(|(t_ns, tid, _)| (*t_ns, *tid));

    // Allocator samples taken at wave boundaries become counter tracks
    // ("ph": "C" on tid 0) so Perfetto charts live/peak bytes under the
    // worker spans. Interleave them by timestamp to keep `ts` monotone.
    let mut wave_mem = snap.wave_mem.clone();
    wave_mem.sort_by_key(|wm| wm.t_ns);
    let push_wave = |events: &mut Vec<Json>, wm: &crate::timeline::WaveMem| {
        for (name, val) in [
            ("mem.live_bytes", wm.live_bytes),
            ("mem.peak_bytes", wm.peak_bytes),
        ] {
            events.push(Json::obj(vec![
                ("name", Json::Str(name.to_string())),
                ("cat", Json::Str("rowpoly".to_string())),
                ("ph", Json::Str("C".to_string())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(0)),
                ("ts", Json::Float(wm.t_ns as f64 / 1000.0)),
                (
                    "args",
                    Json::Obj(vec![("value".to_string(), Json::Int(val))]),
                ),
            ]));
        }
    };
    let mut wm_idx = 0;

    for (t_ns, tid, e) in merged {
        while wm_idx < wave_mem.len() && wave_mem[wm_idx].t_ns <= t_ns {
            push_wave(&mut events, &wave_mem[wm_idx]);
            wm_idx += 1;
        }
        let mut fields = vec![
            ("name", Json::Str(e.name.clone())),
            ("cat", Json::Str("rowpoly".to_string())),
            (
                "ph",
                Json::Str(
                    match e.kind {
                        TimelineEventKind::Begin => "B",
                        TimelineEventKind::End => "E",
                        TimelineEventKind::Instant => "i",
                    }
                    .to_string(),
                ),
            ),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(tid)),
            ("ts", Json::Float(t_ns as f64 / 1000.0)),
        ];
        if e.kind == TimelineEventKind::Instant {
            fields.push(("s", Json::Str("t".to_string())));
        }
        events.push(Json::obj(fields));
    }
    while wm_idx < wave_mem.len() {
        push_wave(&mut events, &wave_mem[wm_idx]);
        wm_idx += 1;
    }

    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
    .render()
}

/// Writes the per-worker Chrome trace for `snap` to `path`.
pub fn write_chrome_trace_timelines(snap: &TimelineSnapshot, path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(chrome_trace_timelines(snap).as_bytes())?;
    file.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::json;

    #[test]
    fn exported_trace_parses_and_orders() {
        let c = Collector::new(true);
        c.begin_span("session");
        c.begin_span("unify");
        c.end_span();
        c.counter_add("flow.unify.calls", 3);
        c.end_span();
        let doc = json::parse(&chrome_trace_json(&c.snapshot())).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // metadata + 4 span edges + 1 counter
        assert_eq!(events.len(), 6);
        let ts: Vec<f64> = events
            .iter()
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts monotone: {ts:?}");
    }

    #[test]
    fn timeline_trace_has_one_named_track_per_worker() {
        let _serial = crate::contention::session_test_lock();
        let profiler = crate::timeline::Profiler::new();
        let mut a = profiler.worker(0);
        a.begin_with(|| "job 0".to_string());
        a.instant("cache-hit");
        a.end();
        let mut b = profiler.worker(1);
        b.note_steal();
        b.begin_with(|| "job 1".to_string());
        b.end();
        profiler.submit(b);
        profiler.submit(a);
        let snap = profiler.finish();

        let doc = json::parse(&chrome_trace_timelines(&snap)).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let ph = |e: &Json| e.get("ph").unwrap().as_str().unwrap().to_string();
        let tid = |e: &Json| e.get("tid").unwrap().as_i64().unwrap();

        // process_name + two thread_name records, workers sorted.
        let meta: Vec<&Json> = events.iter().filter(|e| ph(e) == "M").collect();
        assert_eq!(meta.len(), 3);
        assert_eq!(tid(meta[1]), 1, "worker 0 is tid 1");
        assert_eq!(tid(meta[2]), 2, "worker 1 is tid 2");
        assert_eq!(
            meta[1].get("args").unwrap().get("name").unwrap().as_str(),
            Some("worker 0")
        );

        // Instants are thread-scoped; span edges balance per track.
        for e in events.iter().filter(|e| ph(e) == "i") {
            assert_eq!(e.get("s").unwrap().as_str(), Some("t"));
        }
        for t in [1, 2] {
            let depth: i64 = events
                .iter()
                .filter(|e| tid(e) == t)
                .map(|e| match ph(e).as_str() {
                    "B" => 1,
                    "E" => -1,
                    _ => 0,
                })
                .sum();
            assert_eq!(depth, 0, "unbalanced spans on tid {t}");
        }
    }
}
