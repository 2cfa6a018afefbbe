//! Per-layer figures of a traced phase: the per-GO layer budget built
//! from the program's spans, and ratios over its metrics registry.

use crate::stats::ratio;
use specdb_obs::{MetricsSnapshot, SpanKind, SpanRecord};
use std::collections::BTreeMap;

/// Per-layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A GO's wall interval in microseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct GoWindow {
    /// When the GO started (request written, or the replay's GO mark).
    pub start_us: u64,
    /// When its answer was back.
    pub end_us: u64,
}

fn overlap(s: &SpanRecord, from: u64, to: u64) -> u64 {
    s.wall_end_us.min(to).saturating_sub(s.wall_start_us.max(from))
}

/// Where each GO's wall time went, summed over GOs.
#[derive(Debug, Default)]
pub struct Budget {
    unmatched: u64,
    total_us: u64,
    execute_us: u64,
    plan_us: u64,
    morsel_us: u64,
    build_wait_us: u64,
    other_go_us: u64,
    decide_us: u64,
    governor_marks: u64,
    /// Per matched GO: wall time outside its own execution, in ms.
    pub overhead_ms: Vec<f64>,
}

impl Budget {
    /// Attribute the spans of a traced phase to its GO windows.
    ///
    /// A GO's own execution is the last `Execute` span that lies inside
    /// its window (the engine runs one query at a time under the
    /// database lock, so an earlier one inside the window belongs to the
    /// other session). Before it, the GO waited for whatever held the
    /// engine: speculative builds, the other session's GO, or a decide.
    /// A build also executes queries; those `Execute` spans lie inside
    /// its `Speculation` span (a build holds the engine throughout) and
    /// are neither a GO's own execution nor another GO's.
    pub fn add(&mut self, spans: &[SpanRecord], windows: &[GoWindow]) {
        let of = |k: SpanKind| spans.iter().filter(move |s| s.kind == k);
        let builds: Vec<&SpanRecord> = of(SpanKind::Speculation).collect();
        let in_build = |s: &SpanRecord| {
            builds
                .iter()
                .any(|b| b.wall_start_us <= s.wall_start_us && s.wall_end_us <= b.wall_end_us)
        };
        let mut executes: Vec<&SpanRecord> =
            of(SpanKind::Execute).filter(|s| !in_build(s)).collect();
        executes.sort_by_key(|s| s.wall_end_us);
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(s);
            }
        }
        for w in windows {
            let total = w.end_us.saturating_sub(w.start_us);
            self.total_us += total;
            self.governor_marks += of(SpanKind::Governor)
                .filter(|s| s.wall_start_us >= w.start_us && s.wall_start_us < w.end_us)
                .count() as u64;
            let own = executes
                .iter()
                .rev()
                .find(|s| s.wall_start_us >= w.start_us && s.wall_end_us <= w.end_us);
            let Some(own) = own else {
                self.unmatched += 1;
                continue;
            };
            let exec = own.wall_end_us - own.wall_start_us;
            let operators: u64 = children
                .get(&own.id)
                .map(|c| {
                    c.iter()
                        .filter(|s| s.kind == SpanKind::Operator)
                        .map(|s| s.wall_end_us - s.wall_start_us)
                        .sum()
                })
                .unwrap_or(0);
            let morsels: u64 = of(SpanKind::Morsel)
                .map(|s| overlap(s, own.wall_start_us, own.wall_end_us))
                .sum();
            let before = (w.start_us, own.wall_start_us);
            let waited = |s: &[&SpanRecord]| -> u64 {
                s.iter().map(|s| overlap(s, before.0, before.1)).sum()
            };
            let build_wait = waited(&builds);
            let other_go = waited(&executes);
            let decide = waited(&of(SpanKind::Decide).collect::<Vec<_>>());
            self.execute_us += exec;
            self.plan_us += exec.saturating_sub(operators);
            self.morsel_us += morsels.min(exec);
            self.build_wait_us += build_wait;
            self.other_go_us += other_go;
            self.decide_us += decide;
            self.overhead_ms.push(total.saturating_sub(exec) as f64 / 1e3);
        }
    }

    /// The budget as shares of total GO wall time.
    pub fn layers(&self, out: &mut Layers) {
        let t = self.total_us as f64;
        let share = |us: u64| ratio(us as f64, t);
        let accounted = self.execute_us + self.build_wait_us + self.other_go_us + self.decide_us;
        out.insert("obs.go_budget_execute_share", share(self.execute_us));
        out.insert("obs.go_budget_plan_share", share(self.plan_us));
        out.insert("obs.go_budget_morsel_share", share(self.morsel_us));
        out.insert("obs.go_budget_build_wait_share", share(self.build_wait_us));
        out.insert("obs.go_budget_other_go_share", share(self.other_go_us));
        out.insert("obs.go_budget_decide_share", share(self.decide_us));
        out.insert("obs.go_budget_governor_marks", self.governor_marks as f64);
        out.insert("obs.go_budget_unmatched", self.unmatched as f64);
        out.insert(
            "obs.go_budget_unaccounted_share",
            share(self.total_us.saturating_sub(accounted)),
        );
    }
}

/// Wall (or virtual) durations of every span of `kind`, in µs.
pub fn durations_us(spans: &[SpanRecord], kind: SpanKind, wall: bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind && !s.instant)
        .map(|s| {
            if wall {
                (s.wall_end_us - s.wall_start_us) as f64
            } else {
                s.virt_end_us.saturating_sub(s.virt_start_us) as f64
            }
        })
        .collect()
}

/// Storage, catalog and exec ratios from the program's own counters.
pub fn registry_layers(snap: &MetricsSnapshot, out: &mut Layers) {
    let c = |name: &str| snap.counter(name) as f64;
    let hist_sum = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.sum);
    let pages_read = c("disk.read.seq") + c("disk.read.rand");
    out.insert(
        "storage.segcache_hit_ratio",
        ratio(c("segcache.hit"), c("segcache.hit") + c("segcache.miss")),
    );
    out.insert(
        "storage.decode_ms_total",
        (hist_sum("lat.decode_plain_us")
            + hist_sum("lat.decode_dict_us")
            + hist_sum("lat.decode_rle_us"))
            / 1e3,
    );
    out.insert(
        "storage.prefetch_useful_ratio",
        ratio(
            c("segcache.prefetch_useful.manip") + c("segcache.prefetch_useful.predict"),
            c("segcache.prefetch_issued"),
        ),
    );
    out.insert("storage.pages_read", pages_read);
    out.insert("storage.buffer_hit_ratio", ratio(c("buffer.hit"), c("buffer.hit") + pages_read));
    out.insert("catalog.index_probe_batches", c("exec.index_probe_batches"));
    out.insert("catalog.index_saved_descents", c("exec.index_probe_saved_descents"));
    out.insert("exec.pages_skipped", c("exec.pages_skipped"));
    out.insert(
        "exec.view_rewritten_ratio",
        ratio(c("exec.queries.view_rewritten"), c("exec.queries")),
    );
    out.insert("exec.build_mem_mb", c("mem.build.bytes") / (1024.0 * 1024.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, kind: SpanKind, from: u64, to: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            kind,
            name: "s",
            virt_start_us: from,
            virt_end_us: to,
            wall_start_us: from,
            wall_end_us: to,
            thread: 0,
            instant: false,
            attrs: Vec::new(),
        }
    }

    /// A build that starts after the GO executed but before its reply
    /// was read runs its own query; that query is not the GO's.
    #[test]
    fn a_build_query_inside_the_window_is_not_the_go() {
        let spans = [
            span(1, SpanKind::Execute, 100, 300),
            span(2, SpanKind::Speculation, 350, 900),
            span(3, SpanKind::Execute, 400, 800),
        ];
        let mut budget = Budget::default();
        budget.add(&spans, &[GoWindow { start_us: 0, end_us: 1000 }]);
        let mut out = Layers::new();
        budget.layers(&mut out);
        assert_eq!(out["obs.go_budget_unmatched"], 0.0);
        assert_eq!(out["obs.go_budget_execute_share"], 0.2);
        assert_eq!(out["obs.go_budget_other_go_share"], 0.0);
        assert_eq!(out["obs.go_budget_build_wait_share"], 0.0);
        assert_eq!(budget.overhead_ms, vec![0.8]);
    }
}
