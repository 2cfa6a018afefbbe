//! GO-latency benchmark for specdb: live `specdb-serve` over TCP beside
//! its virtual-time twin. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live_think --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`). The line
//! before it, starting `# run`, records the data size, cache sizes,
//! core count, commit, seeds and think-time compression.

mod cohort;
mod layers;
mod live;
mod stats;
mod twin;
mod wire;

use layers::Layers;
use specdb_exec::Database;
use specdb_serve::{serve, ServeConfig};
use specdb_sim::{build_base_db, DatasetSpec};
use stats::{median, quantile, ratio};
use std::time::Instant;

/// The paper's 100 MB dataset at divisor 100: 2 MB of real pages under
/// a 64-page (0.5 MB) buffer pool, whose byte size is also the segment
/// cache's budget. Divisor 20 peaked at 1.38 GB resident per run (GO
/// results are materialized, and many-to-many joins return ~466 k wide
/// rows there).
fn dataset() -> DatasetSpec {
    DatasetSpec::paper_trio(100).remove(0)
}

/// `live_burst`'s pool: 500 MB nominal is 5 MB real, so every page and
/// decoded segment of the dataset stays cached.
const BURST_BUFFER_MB: u64 = 500;

/// Set-ups per run, half before the measured work and half after it;
/// `setup_s` is their median. Spreading them over the run keeps a
/// moment of host load from deciding the figure.
const SETUPS: usize = 40;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    LiveThink,
    LiveBurst,
    TwinReplay,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        [Workload::LiveThink, Workload::LiveBurst, Workload::TwinReplay]
            .into_iter()
            .find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LiveThink => "live_think",
            Workload::LiveBurst => "live_burst",
            Workload::TwinReplay => "twin_replay",
        }
    }

    fn spec(self) -> DatasetSpec {
        match self {
            Workload::LiveBurst => DatasetSpec { buffer_mb: BURST_BUFFER_MB, ..dataset() },
            _ => dataset(),
        }
    }

    /// The work of a `seconds` window: edits and GOs each live
    /// connection sends, or trace pairs the twin replays. The rates are
    /// the mean pace on a 2-core host. A run does a fixed amount of work,
    /// so the same seed and window always send the same requests.
    fn work(self, seconds: f64) -> usize {
        let per_second = match self {
            Workload::LiveThink => 14.0,
            Workload::LiveBurst => 17.0,
            Workload::TwinReplay => 5.5,
        };
        (seconds * per_second).ceil() as usize
    }

    fn live(self) -> Option<live::Live> {
        match self {
            Workload::LiveThink => Some(live::Live { think: true, speculate: true }),
            Workload::LiveBurst => Some(live::Live { think: false, speculate: false }),
            Workload::TwinReplay => None,
        }
    }
}

/// What one measured phase of a workload saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per GO, failed ones included: the wait from GO to the answer on
    /// the workload's clock (wall over the wire; virtual in the twin).
    pub go_ms: Vec<f64>,
    /// Per edit: wall time from the request to its ack (live), or from
    /// one edit to the next (twin).
    pub edit_ms: Vec<f64>,
    /// Per GO: the engine's virtual execution time.
    pub virtual_go_s: Vec<f64>,
    /// Wall seconds the phase spent replaying.
    pub wall_s: f64,
    /// Per session pair that ran its whole trace: GOs and edits
    /// completed per wall second.
    pub pair_go_rates: Vec<f64>,
    pub pair_edit_rates: Vec<f64>,
    /// Edits acknowledged.
    pub edits: u64,
    /// GOs answered with rows.
    pub gos: u64,
    /// Requests sent (every edit and GO, plus session control lines).
    pub attempted: u64,
    /// Error replies, timeouts, disconnects, and answers that differ
    /// from the intended query's oracle.
    pub failed: u64,
    /// Answers that differ from what the engine returns in-process for
    /// the query it was actually given: an engine or server fault.
    pub wrong: u64,
    /// Broken post-conditions.
    pub notes: Vec<String>,
    /// Oracle execution time per final query, ms.
    pub exec_ms: Vec<f64>,
    /// Spans the tracer had to drop.
    pub dropped_spans: u64,
    /// Per-layer metrics.
    pub layers: Layers,
}

/// `(name, unit)` of every end-to-end metric, in output order: the
/// figures that repeat within a tenth from seed to seed on every
/// workload (see README.md).
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("go_p50_ms", "ms"), ("edit_p50_ms", "ms")];

/// `(name, unit)` of every per-layer metric, in output order. The first
/// group are user-facing figures that vary too much from seed to seed
/// to gate on; they come from the untraced half of a traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("go_p95_ms", "ms"),
    ("edit_p99_ms", "ms"),
    ("go_per_s", "1/s"),
    ("virtual_go_p50_s", "s"),
    ("virtual_go_p95_s", "s"),
    ("replay_edits_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("storage.segcache_hit_ratio", "ratio"),
    ("storage.decode_ms_total", "ms"),
    ("storage.prefetch_useful_ratio", "ratio"),
    ("storage.pages_read", "count"),
    ("storage.buffer_hit_ratio", "ratio"),
    ("catalog.index_probe_batches", "count"),
    ("catalog.index_saved_descents", "count"),
    ("exec.query_ms_p50", "ms"),
    ("exec.query_ms_p95", "ms"),
    ("exec.pages_skipped", "count"),
    ("exec.view_rewritten_ratio", "ratio"),
    ("exec.plan_cache_hit_ratio", "ratio"),
    ("exec.build_mem_mb", "MB"),
    ("core.decide_us_p50", "us"),
    ("core.build_s_p50", "s"),
    ("core.issued", "count"),
    ("core.completed", "count"),
    ("core.cancelled", "count"),
    ("core.used_ratio", "ratio"),
    ("core.waste_ratio", "ratio"),
    ("serve.go_overhead_ms_p50", "ms"),
    ("serve.go_overhead_ms_p95", "ms"),
    ("serve.governor_admitted", "count"),
    ("serve.governor_denied", "count"),
    ("serve.governor_preempted", "count"),
    ("serve.shared_hits", "count"),
    ("serve.cross_session_reuse", "ratio"),
    ("serve.builds_stale", "count"),
    ("serve.wire_roundtrip_failures", "count"),
    ("sim.replay_s", "s"),
    ("tpch.generate_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.dropped_spans", "count"),
    ("obs.go_budget_execute_share", "ratio"),
    ("obs.go_budget_plan_share", "ratio"),
    ("obs.go_budget_morsel_share", "ratio"),
    ("obs.go_budget_build_wait_share", "ratio"),
    ("obs.go_budget_other_go_share", "ratio"),
    ("obs.go_budget_decide_share", "ratio"),
    ("obs.go_budget_governor_marks", "count"),
    ("obs.go_budget_unmatched", "count"),
    ("obs.go_budget_unaccounted_share", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Client connections: one per core, at most one per session of a
/// look-alike pair.
pub fn connections() -> usize {
    nproc().clamp(1, cohort::SESSIONS_PER_PAIR)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("VmHWM:").map(|v| v.trim().to_string()))
        })
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout. Discovery stops at the working
/// directory (the checkout's root), so nothing above it is read.
fn git_sha() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(0.1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Set-up and data-generation times, in seconds.
#[derive(Default)]
struct SetUps {
    setup: Vec<f64>,
    generate: Vec<f64>,
}

/// Build the data (and, for a live workload, start a server on it)
/// `times` times, recording each into `t`. Returns the last database.
fn set_up(
    w: Workload,
    spec: &DatasetSpec,
    times: usize,
    t: &mut SetUps,
) -> Result<Database, String> {
    let SetUps { setup, generate } = t;
    let mut base = None;
    for _ in 0..times {
        let started = Instant::now();
        let db = build_base_db(spec).map_err(|e| format!("build_base_db: {e}"))?;
        generate.push(started.elapsed().as_secs_f64());
        if w.live().is_some() {
            let handle =
                serve(db.clone(), ServeConfig::default()).map_err(|e| format!("serve: {e}"))?;
            setup.push(started.elapsed().as_secs_f64());
            handle.shutdown();
        } else {
            setup.push(started.elapsed().as_secs_f64());
        }
        base = Some(db);
    }
    base.ok_or_else(|| "no set-up".into())
}

fn run_phase(
    w: Workload,
    base: &Database,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    match w.live() {
        Some(l) => live::phase(base, l, seed, w.work(seconds), traced),
        None => twin::phase(base, seed, w.work(seconds), traced),
    }
}

/// The user-facing figures of an untraced phase.
fn user_figures(p: &Phase, setup_s: f64) -> Layers {
    let mut m = Layers::new();
    m.insert("setup_s", setup_s);
    m.insert("go_p50_ms", quantile(&p.go_ms, 0.5));
    m.insert("go_p95_ms", quantile(&p.go_ms, 0.95));
    m.insert("edit_p50_ms", quantile(&p.edit_ms, 0.5));
    m.insert("edit_p99_ms", quantile(&p.edit_ms, 0.99));
    m.insert("go_per_s", median(&p.pair_go_rates));
    m.insert("virtual_go_p50_s", quantile(&p.virtual_go_s, 0.5));
    m.insert("virtual_go_p95_s", quantile(&p.virtual_go_s, 0.95));
    m.insert("replay_edits_per_s", median(&p.pair_edit_rates));
    m
}

fn json_metrics(names: &[(&str, &str)], values: &Layers) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            let v = values.get(n).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let spec = w.spec();
    let mut setups = SetUps::default();
    let base = set_up(w, &spec, SETUPS / 2, &mut setups)?;
    // A traced run does half its work untraced and half traced, on the
    // same traces, so the tracing overhead is a ratio of the two.
    let plain_secs = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let plain = run_phase(w, &base, args.seed, plain_secs, false)?;
    let traced = if args.trace {
        Some(run_phase(w, &base, args.seed, args.seconds / 2.0, true)?)
    } else {
        None
    };
    set_up(w, &spec, SETUPS - SETUPS / 2, &mut setups)?;
    let (setup_s, generate_s) = (median(&setups.setup), median(&setups.generate));
    let phases: Vec<&Phase> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let wrong: u64 = phases.iter().map(|p| p.wrong).sum();
    let notes: Vec<&String> = phases.iter().flat_map(|p| &p.notes).collect();
    for n in &notes {
        eprintln!("perfbench: post-condition failed: {n}");
    }
    if wrong > 0 {
        eprintln!("perfbench: {wrong} answers differ from in-process execution of the same query");
    }
    // A phase that answered no GO has no latency to report.
    let answered = phases.iter().all(|p| p.gos > 0);
    if !answered {
        eprintln!("perfbench: a measured phase answered no GO");
    }
    let correct = wrong == 0 && notes.is_empty() && answered;

    let mut figures = user_figures(&plain, setup_s);
    figures.insert("peak_rss_mb", peak_rss_mb());
    for (name, q) in [("go_p95_ms", 0.95), ("edit_p99_ms", 0.99)] {
        let n = if name.starts_with("go") { plain.go_ms.len() } else { plain.edit_ms.len() };
        if n < stats::samples_needed(q) {
            eprintln!(
                "perfbench: {name} rests on {n} samples, fewer than {}",
                stats::samples_needed(q)
            );
        }
    }
    // The segment cache's budget is the pool's byte size.
    let pool_bytes = base.pool().capacity() * specdb_storage::PAGE_SIZE;
    let info = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"work\": {}, \"wall_s\": {:.3}, \"trace\": {}, \"git_sha\": \"{}\", \
         \"nproc\": {}, \"connections\": {}, \"data_mb\": {:.3}, \"pool_bytes\": {pool_bytes}, \
         \"segcache_budget_bytes\": {pool_bytes}, \"dataset\": \"{} /{} (seed {})\", \
         \"think_compression\": {}, \"gos\": {}, \"edits\": {}, \"failed\": {}, \"attempted\": {}}}",
        w.name(),
        args.seed,
        args.seconds,
        w.work(plain_secs),
        phases.iter().map(|p| p.wall_s).sum::<f64>(),
        args.trace,
        git_sha(),
        nproc(),
        connections(),
        base.pool().disk_bytes() as f64 / (1024.0 * 1024.0),
        spec.label,
        spec.divisor,
        spec.seed,
        if w == Workload::LiveThink { live::THINK_COMPRESSION } else { 0.0 },
        plain.gos,
        plain.edits,
        failed,
        attempted,
    );
    println!("# run {info}");

    let metrics = match &traced {
        None => json_metrics(END_TO_END, &figures),
        Some(t) => {
            let mut l = figures;
            l.extend(t.layers.clone());
            l.insert("tpch.generate_s", generate_s);
            l.insert("exec.query_ms_p50", quantile(&t.exec_ms, 0.5));
            l.insert("exec.query_ms_p95", quantile(&t.exec_ms, 0.95));
            l.insert("obs.dropped_spans", t.dropped_spans as f64);
            l.insert("failed_ratio", ratio(failed as f64, attempted as f64));
            // Live: traced over untraced GO p50. Twin, whose GO latency
            // is virtual and so untouched by tracing: wall per edit.
            let overhead = match w.live() {
                Some(_) => ratio(median(&t.go_ms), median(&plain.go_ms)),
                None => ratio(
                    t.wall_s / t.edits.max(1) as f64,
                    plain.wall_s / plain.edits.max(1) as f64,
                ),
            };
            l.insert("obs.trace_overhead_ratio", overhead);
            let missing: Vec<&str> =
                PER_LAYER.iter().map(|(n, _)| *n).filter(|n| !l.contains_key(n)).collect();
            if !missing.is_empty() {
                eprintln!("perfbench: not measured on this workload (reported as 0): {missing:?}");
            }
            json_metrics(PER_LAYER, &l)
        }
    };
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    ))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload live_think|live_burst|twin_replay --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: harness error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload twin_replay --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::TwinReplay);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload live_think --seed 1 --seconds 1").is_err());
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let line = json_metrics(END_TO_END, &Layers::new());
        let parsed = serde_json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.as_object().unwrap().len(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"), "{line}");
    }

    /// Seconds-scale run of both phase kinds on the tiny dataset: the
    /// harness runs end to end and every answer matches the oracle of
    /// the query the program was actually given.
    #[test]
    fn smoke_run_on_the_tiny_dataset() {
        let base = build_base_db(&DatasetSpec::tiny()).unwrap();
        let think = live::Live { think: true, speculate: true };
        for traced in [false, true] {
            let p = live::phase(&base, think, 3, 20, traced).unwrap();
            assert!(p.gos > 0 && p.edits > 0, "{p:?}");
            assert_eq!(p.wrong, 0);
            let t = twin::phase(&base, 3, 2, traced).unwrap();
            assert!(t.gos > 0 && t.edits > 0);
            assert_eq!(t.wrong, 0);
            assert_eq!(t.failed, 0);
            if traced {
                assert!(p.layers.contains_key("obs.go_budget_execute_share"));
                assert_eq!(p.layers["obs.go_budget_unmatched"], 0.0);
                assert!(t.layers["obs.go_budget_execute_share"] > 0.0);
            }
        }
        let burst = live::Live { think: false, speculate: false };
        let p = live::phase(&base, burst, 3, 20, false).unwrap();
        assert!(p.notes.is_empty(), "{:?}", p.notes);
        assert_eq!(p.layers["core.issued"], 0.0);
    }
}
