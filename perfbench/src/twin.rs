//! The virtual-time twin: the same trace pairs replayed in-process
//! through `sim::replay_multi_session`.

use crate::cohort;
use crate::layers::{self, Budget, GoWindow};
use crate::stats::{quantile, ratio};
use crate::Phase;
use specdb_exec::Database;
use specdb_obs::{
    Event, EventKind, EventSink, MetricsSnapshot, Observer, SpanKind, SpanRecord, Tracer,
};
use specdb_sim::{replay_multi_session, MultiSessionConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Wall-clock marks of the replay's edit and query-finished events:
/// the gap from one edit to the next is the twin's wall time for it.
#[derive(Default)]
struct EditClock {
    marks: Mutex<Vec<(Instant, bool)>>,
}

impl EventSink for EditClock {
    fn wants(&self, kind: EventKind) -> bool {
        matches!(kind, EventKind::Edit | EventKind::QueryFinished)
    }

    fn record(&self, _at_micros: u64, event: &Event) {
        let is_edit = matches!(event, Event::Edit { .. });
        self.marks.lock().expect("edit clock poisoned").push((Instant::now(), is_edit));
    }
}

impl EditClock {
    /// Wall ms between consecutive edit marks with no query between.
    fn take_edit_gaps(&self) -> Vec<f64> {
        let marks = std::mem::take(&mut *self.marks.lock().expect("edit clock poisoned"));
        marks
            .windows(2)
            .filter(|w| w[0].1 && w[1].1)
            .map(|w| (w[1].0 - w[0].0).as_secs_f64() * 1e3)
            .collect()
    }
}

/// GO windows of a traced replay: from each GO mark to the next edit
/// mark (any session) or the end of the replay.
fn go_windows(spans: &[SpanRecord]) -> Vec<GoWindow> {
    let mut marks: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Edit || s.kind == SpanKind::Session)
        .map(|s| if s.instant { s.wall_start_us } else { s.wall_end_us })
        .collect();
    marks.sort_unstable();
    spans
        .iter()
        .filter(|s| s.kind == SpanKind::Edit && s.name == "go")
        .filter_map(|s| {
            let end = marks.iter().find(|&&m| m > s.wall_start_us)?;
            Some(GoWindow { start_us: s.wall_start_us, end_us: *end })
        })
        .collect()
}

fn merge(total: &mut MetricsSnapshot, snap: MetricsSnapshot) {
    for (name, v) in snap.counters {
        *total.counters.entry(name).or_default() += v;
    }
    for (name, h) in snap.histograms {
        match total.histograms.get_mut(&name) {
            Some(t) => {
                t.count += h.count;
                t.sum += h.sum;
            }
            None => {
                total.histograms.insert(name, h);
            }
        }
    }
}

/// The twin's configuration: `live_think`'s, except that whole-query
/// prediction is off. The replay runs each build to completion in
/// process, and predicted completions can be cartesian products (a
/// predicted canvas with three relations and no join edge, costed at
/// 0.31 s) whose materialization grows past a gigabyte; the live server
/// cancels such builds at the next edit.
fn config() -> MultiSessionConfig {
    let mut config = MultiSessionConfig::speculative();
    config.replay.speculator.predict = false;
    config
}

/// Replay the first `pairs` trace pairs of `seed` on the virtual clock.
pub fn phase(base: &Database, seed: u64, pairs: usize, traced: bool) -> Result<Phase, String> {
    let config = config();
    let clock = Arc::new(EditClock::default());
    let mut answers = Vec::new();
    let mut out = Phase::default();
    let mut snap = MetricsSnapshot::default();
    let mut budget = Budget::default();
    let (mut decide_us, mut build_s) = (Vec::new(), Vec::new());
    let (mut plan_hits, mut plan_lookups) = (0u64, 0u64);
    let mut sum = std::collections::BTreeMap::<&str, u64>::new();
    let mut roundtrip_failures = 0;
    for pair in 0..pairs {
        let trace = cohort::pair_trace(seed, pair);
        let traces = vec![trace.clone(); cohort::SESSIONS_PER_PAIR];
        let tracer = if traced { Tracer::enabled() } else { Tracer::disabled() };
        let observer = if traced {
            Observer::enabled().with_tracer(tracer.clone())
        } else {
            Observer::disabled()
        }
        .with_sink(clock.clone());
        let mut db = base.clone();
        db.set_observer(observer.clone());
        let started = Instant::now();
        let run =
            replay_multi_session(&mut db, &traces, &config).map_err(|e| format!("replay: {e}"))?;
        let secs = started.elapsed().as_secs_f64();
        out.wall_s += secs;
        out.edit_ms.extend(clock.take_edit_gaps());
        let pc = db.plan_cache_stats();
        plan_hits += pc.hits;
        plan_lookups += pc.hits + pc.misses;

        let (edits, gos) = cohort::counts(&trace);
        out.pair_go_rates.push((gos * traces.len()) as f64 / secs);
        out.pair_edit_rates.push((edits * traces.len()) as f64 / secs);
        for session in &run.per_session {
            out.edits += edits as u64;
            out.attempted += edits as u64;
            for q in &session.queries {
                out.attempted += 1;
                out.gos += 1;
                out.go_ms.push(q.elapsed.as_secs_f64() * 1e3);
                out.virtual_go_s.push(q.elapsed.as_secs_f64());
            }
            for (name, v) in [
                ("issued", session.issued),
                ("completed", session.completed),
                ("cancelled", session.cancelled),
                ("used", session.used),
                ("wasted", session.wasted),
            ] {
                *sum.entry(name).or_default() += v;
            }
        }
        for (name, v) in [
            ("admitted", run.admitted),
            ("denied", run.denied),
            ("preempted", run.preempted),
            ("shared_hits", run.shared_hits),
            ("artifact_uses", run.artifact_uses),
        ] {
            *sum.entry(name).or_default() += v;
        }
        roundtrip_failures += cohort::roundtrip_failures(&trace) * traces.len() as u64;
        answers
            .push((trace, run.per_session.iter().map(|o| o.queries.clone()).collect::<Vec<_>>()));
        if traced {
            let spans = tracer.take_spans();
            let windows = go_windows(&spans);
            budget.add(&spans, &windows);
            decide_us.extend(layers::durations_us(&spans, SpanKind::Decide, true));
            build_s.extend(
                layers::durations_us(&spans, SpanKind::Speculation, false)
                    .iter()
                    .map(|us| us / 1e6),
            );
            merge(&mut snap, observer.metrics().snapshot());
            out.dropped_spans += tracer.dropped();
        }
    }

    // The oracle runs after the measured window, so it takes no replay
    // time away from the window.
    let jobs: Vec<_> = answers.iter().map(|(t, _)| (t.clone(), cohort::counts(t).1)).collect();
    for (oracle, (_, sessions)) in cohort::oracles(base, &jobs, false).into_iter().zip(&answers) {
        for q in sessions.iter().flatten() {
            if oracle.intended_rows.get(q.index).copied().flatten() != Some(q.rows) {
                out.failed += 1;
                out.wrong += 1;
            }
        }
        out.exec_ms.extend(oracle.exec_ms);
    }

    let s = |name: &str| sum.get(name).copied().unwrap_or(0) as f64;
    let l = &mut out.layers;
    if traced {
        layers::registry_layers(&snap, l);
        budget.layers(l);
        l.insert("core.decide_us_p50", quantile(&decide_us, 0.5));
        l.insert("core.build_s_p50", quantile(&build_s, 0.5));
        l.insert("serve.go_overhead_ms_p50", quantile(&budget.overhead_ms, 0.5));
        l.insert("serve.go_overhead_ms_p95", quantile(&budget.overhead_ms, 0.95));
    }
    l.insert("exec.plan_cache_hit_ratio", ratio(plan_hits as f64, plan_lookups as f64));
    l.insert("core.issued", s("issued"));
    l.insert("core.completed", s("completed"));
    l.insert("core.cancelled", s("cancelled"));
    l.insert("core.used_ratio", ratio(s("used"), s("completed")));
    l.insert("core.waste_ratio", ratio(s("wasted"), s("issued")));
    l.insert("serve.governor_admitted", s("admitted"));
    l.insert("serve.governor_denied", s("denied"));
    l.insert("serve.governor_preempted", s("preempted"));
    l.insert("serve.shared_hits", s("shared_hits"));
    l.insert("serve.cross_session_reuse", ratio(s("shared_hits"), s("artifact_uses")));
    l.insert("serve.wire_roundtrip_failures", roundtrip_failures as f64);
    l.insert("sim.replay_s", out.wall_s);
    if s("issued") == 0.0 {
        out.notes.push("twin_replay issued no speculative builds".into());
    }
    Ok(out)
}
