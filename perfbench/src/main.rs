//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference
//! ```
//!
//! Runs one workload (`resident_sweep`, `paging_sweep` or `serve_mix`),
//! checks every output against the reference, prints a
//! human-readable summary and, as the last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! A mismatch against the reference makes the exit code non-zero. See
//! README.md beside this file for what each workload and metric is for.

mod check;
mod inputs;
mod serve;
mod stats;
mod sweep;
mod trace;

use check::Reference;
use gex::cache::CacheStats;
use gex::mem::MemStats;
use gex::sm::SmStats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use sweep::{Grid, Pass, Point};

/// Where runs keep their spans and the daemon's journal, relative to the
/// directory the benchmark is started from (the repository root).
const SCRATCH_DIR: &str = ".perfbench";

/// Reference outcomes, relative to the repository root.
const REFERENCE_PATH: &str = "perfbench/reference.txt";

/// Set-ups per run: at least [`MIN_SETUPS`], then more until
/// [`SETUP_BUDGET_S`] seconds of set-up have run, at most [`MAX_SETUPS`].
/// `setup_s` is their median, so the first, cold set-up does not set it.
/// Only the first runs before the measured phase. A sweep runs one more
/// after each pass and the rest after its last; `serve_mix` runs the rest
/// after its campaigns. So the median samples the host over the whole run
/// rather than its first seconds.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET_S: f64 = 4.0;

/// Whether a run that has set up for `secs` owes another set-up.
pub fn setup_due(secs: &[f64]) -> bool {
    secs.len() < MIN_SETUPS
        || (secs.len() < MAX_SETUPS && secs.iter().sum::<f64>() < SETUP_BUDGET_S)
}

/// Run `setup` once, adding the seconds it took to `secs`.
pub fn timed_setup<T>(secs: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let built = setup();
    secs.push(start.elapsed().as_secs_f64());
    built
}

/// Per-layer measurements of one run.
#[derive(Debug, Default)]
pub struct Layer {
    /// Milliseconds spent building the workloads of one set-up.
    pub build_ms: f64,
    /// Dynamic instructions in the built traces.
    pub dyn_instrs: u64,
    /// Direct `suite::by_name` call times.
    pub by_name_ms: Vec<f64>,
    /// Submit-to-acknowledgement times.
    pub submit_ms: Vec<f64>,
    /// Load-shed submits.
    pub shed: u64,
    /// Quarantined campaign points.
    pub quarantined: u64,
    /// Host milliseconds of every `Gpu::try_run`.
    pub point_ms: Vec<f64>,
    /// Pool utilization of each pass.
    pub utilization: Vec<f64>,
    /// Host seconds the points of one pass ran, summed.
    pub busy_s: f64,
    /// Host seconds of the successful points of that pass.
    pub busy_ok_s: f64,
    /// Simulated cycles of the successful points of that pass.
    pub cycles_ok: u64,
    /// SM counters of that pass, summed (`cycles` aside: see
    /// [`Layer::ticked_cycles`]).
    pub sm: SmStats,
    /// SM-ticked cycles of that pass, summed over its points.
    /// `SmStats::merge` keeps the largest `cycles`, as it merges SMs.
    pub ticked_cycles: u64,
    /// Memory counters of that pass, summed.
    pub mem: MemStats,
    /// Fault regions the CPU handler resolved with a data migration.
    pub cpu_migrations: u64,
    /// Fault regions the CPU handler resolved with allocation only.
    pub cpu_allocations: u64,
    /// Cycles the CPU handler was busy.
    pub cpu_busy_cycles: u64,
    /// Faults handled GPU-locally.
    pub local_handled: u64,
    /// Block context switches.
    pub switches: u64,
    /// Points run under an injection plan.
    pub injected: u64,
    /// Failed points by error kind.
    pub failed: BTreeMap<&'static str, u64>,
    /// Mean self milliseconds per span, by span name.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Traced over untraced median, minus one.
    pub trace_overhead: f64,
    /// Spans recorded.
    pub spans: usize,
}

impl Layer {
    /// Record a pass's point times and pool utilization.
    pub fn absorb_timing(&mut self, pass: &Pass, points: usize) {
        let workers = gex::exec::threads().min(points).max(1);
        self.point_ms.extend(
            pass.runs
                .iter()
                .map(|r| (r.at.end - r.at.start).as_secs_f64() * 1e3),
        );
        self.utilization
            .push(stats::utilization(pass.busy_s(), pass.wall_s(), workers));
    }

    /// Take the simulated counters from one pass's reports.
    pub fn add_pass(&mut self, points: &[Point], pass: &Pass) {
        for (p, run) in points.iter().zip(&pass.runs) {
            let secs = (run.at.end - run.at.start).as_secs_f64();
            self.busy_s += secs;
            self.injected += u64::from(p.inject.is_some());
            let r = match &run.result {
                Ok(r) => r,
                Err(e) => {
                    *self.failed.entry(check::error_kind(e)).or_insert(0) += 1;
                    continue;
                }
            };
            self.busy_ok_s += secs;
            self.cycles_ok += r.cycles;
            self.sm.merge(&r.sm);
            self.ticked_cycles += r.sm.cycles;
            let (a, b) = (&mut self.mem, &r.mem);
            a.requests += b.requests;
            a.l1_hits += b.l1_hits;
            a.l1_misses += b.l1_misses;
            a.l2_hits += b.l2_hits;
            a.l2_misses += b.l2_misses;
            a.walks += b.walks;
            a.faulted_requests += b.faulted_requests;
            a.mshr_retries += b.mshr_retries;
            self.cpu_migrations += r.cpu.migrations;
            self.cpu_allocations += r.cpu.allocations;
            self.cpu_busy_cycles += r.cpu.busy_cycles;
            self.local_handled += r.local.resolved;
            self.switches += r.switches;
        }
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Measured {
    /// Workload name.
    pub workload: &'static str,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Points attempted.
    pub attempted: u64,
    /// Points failed: simulation errors, quarantined or shed points and
    /// output mismatches.
    pub failed: u64,
    /// Output mismatches against the reference.
    pub mismatches: Vec<String>,
    /// Submit (or pass start) to terminal state, per campaign or pass.
    pub campaign_ms: Vec<f64>,
    /// Submit (or pass start) to the first point result.
    pub first_result_ms: Vec<f64>,
    /// Host seconds per pass (per round of one campaign per tenant).
    pub round_s: f64,
    /// Campaigns or passes completed per second.
    pub campaigns_per_s: f64,
    /// Simulated cycles of the successful points of one pass (of the
    /// fixed campaign prefix).
    pub sim_cycles: f64,
    /// Peak resident memory in MiB when the first set-up and the first
    /// pass (or all campaigns) had run: the extra set-ups `setup_s` takes
    /// come later, so they do not set it.
    pub peak_rss_mb: f64,
    /// Result-cache counters over the measured phase.
    pub cache: CacheStats,
    /// Per-layer measurements.
    pub layer: Layer,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Measured {
    /// An empty measurement of `workload` with its set-up times.
    pub fn new(workload: &'static str, setup_s: Vec<f64>) -> Measured {
        Measured {
            workload,
            setup_s,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            campaign_ms: Vec::new(),
            first_result_ms: Vec::new(),
            round_s: 0.0,
            campaigns_per_s: 0.0,
            sim_cycles: 0.0,
            peak_rss_mb: 0.0,
            cache: CacheStats::default(),
            layer: Layer::default(),
            notes: Vec::new(),
        }
    }

    /// Count an output mismatch; it also counts as a failed point.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Fold one sweep pass in: count and check every point, keep timings.
    pub fn absorb_pass(
        &mut self,
        workload: &str,
        points: &[Point],
        pass: &Pass,
        reference: &Reference,
    ) {
        for (p, run) in points.iter().zip(&pass.runs) {
            self.attempted += 1;
            match reference.check(workload, p, &run.result) {
                Err(why) => self.mismatch(format!("{}: {why}", p.key)),
                Ok(()) if run.result.is_err() => self.failed += 1,
                Ok(()) => {}
            }
        }
        self.campaign_ms.push(pass.wall_s() * 1e3);
        self.first_result_ms.push(pass.first_result_ms());
        self.layer.absorb_timing(pass, points.len());
    }

    /// Take self times and the overhead estimate from a traced run, and
    /// write its spans out.
    pub fn set_trace(&mut self, tracer: &trace::Tracer, overhead: f64) {
        let spans = tracer.spans();
        let mut count: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in &spans {
            *count.entry(s.name).or_insert(0) += 1;
        }
        for (name, total_s) in trace::self_time_by_name(&spans) {
            self.layer
                .self_ms
                .insert(name, total_s * 1e3 / count[name] as f64);
        }
        self.layer.trace_overhead = overhead;
        self.layer.spans = spans.len();
        let path = Path::new(SCRATCH_DIR).join(format!("spans-{}.jsonl", self.workload));
        let origin = spans
            .iter()
            .map(|s| s.at.start)
            .min()
            .unwrap_or_else(Instant::now);
        match trace::write_jsonl(&path, origin, &spans) {
            Ok(()) => self.notes.push(format!(
                "{} span(s) written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => self
                .notes
                .push(format!("could not write spans to {}: {e}", path.display())),
        }
    }

    /// Share of attempted points that failed.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metrics: name, value, unit.
    pub fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        vec![
            ("setup_s".into(), stats::median(&self.setup_s), "s"),
            ("sweep_s".into(), self.round_s, "s"),
            (
                "campaign_ms_p50".into(),
                stats::percentile(&self.campaign_ms, 50.0),
                "ms",
            ),
            (
                "campaign_ms_p75".into(),
                stats::percentile(&self.campaign_ms, 75.0),
                "ms",
            ),
            (
                "first_result_ms_p50".into(),
                stats::percentile(&self.first_result_ms, 50.0),
                "ms",
            ),
            (
                "first_result_ms_p75".into(),
                stats::percentile(&self.first_result_ms, 75.0),
                "ms",
            ),
            ("campaigns_per_s".into(), self.campaigns_per_s, "1/s"),
            ("peak_rss_mb".into(), self.peak_rss_mb, "MB"),
            ("ok_frac".into(), 1.0 - self.error_frac(), "ratio"),
            ("sim_cycles".into(), self.sim_cycles, "cycles"),
        ]
    }

    /// The per-layer metrics: name, value, unit.
    pub fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let l = &self.layer;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let lookups = self.cache.hits + self.cache.misses;
        let mut v: Vec<(String, f64, &'static str)> = vec![
            ("workloads.build_ms".into(), l.build_ms, "ms"),
            ("workloads.dyn_instrs".into(), l.dyn_instrs as f64, "count"),
            (
                "workloads.by_name_ms_p50".into(),
                stats::median(&l.by_name_ms),
                "ms",
            ),
            (
                "serve.submit_ms_p50".into(),
                stats::percentile(&l.submit_ms, 50.0),
                "ms",
            ),
            (
                "serve.submit_ms_p75".into(),
                stats::percentile(&l.submit_ms, 75.0),
                "ms",
            ),
            ("serve.shed".into(), l.shed as f64, "count"),
            ("serve.quarantined".into(), l.quarantined as f64, "count"),
            ("cache.hits".into(), self.cache.hits as f64, "count"),
            ("cache.misses".into(), self.cache.misses as f64, "count"),
            (
                "cache.hit_ratio".into(),
                ratio(self.cache.hits, lookups),
                "ratio",
            ),
            (
                "cache.coalesced".into(),
                self.cache.coalesced as f64,
                "count",
            ),
            (
                "exec.utilization".into(),
                stats::median(&l.utilization),
                "ratio",
            ),
            (
                "sim.point_ms_p50".into(),
                stats::percentile(&l.point_ms, 50.0),
                "ms",
            ),
            (
                "sim.point_ms_p90".into(),
                stats::percentile(&l.point_ms, 90.0),
                "ms",
            ),
            ("sim.busy_s".into(), l.busy_s, "s"),
            (
                "sim.minstr_per_s".into(),
                if l.busy_ok_s > 0.0 {
                    l.sm.committed as f64 / l.busy_ok_s / 1e6
                } else {
                    0.0
                },
                "Minstr/s",
            ),
            (
                "sim.ns_per_cycle".into(),
                if l.cycles_ok > 0 {
                    l.busy_ok_s * 1e9 / l.cycles_ok as f64
                } else {
                    0.0
                },
                "ns",
            ),
            (
                "sim.cpu_migrations".into(),
                l.cpu_migrations as f64,
                "count",
            ),
            (
                "sim.cpu_allocations".into(),
                l.cpu_allocations as f64,
                "count",
            ),
            (
                "sim.cpu_busy_cycles".into(),
                l.cpu_busy_cycles as f64,
                "cycles",
            ),
            ("sim.local_handled".into(), l.local_handled as f64, "count"),
            ("sim.switches".into(), l.switches as f64, "count"),
            ("sim.injected".into(), l.injected as f64, "count"),
            (
                "sim.failed".into(),
                l.failed.values().sum::<u64>() as f64,
                "count",
            ),
        ];
        for kind in check::ERROR_KINDS {
            v.push((
                format!("sim.failed.{kind}"),
                *l.failed.get(kind).unwrap_or(&0) as f64,
                "count",
            ));
        }
        let sm = &l.sm;
        for (name, value) in [
            ("committed", sm.committed),
            ("issued", sm.issued),
            ("squashed", sm.squashed),
            ("faults", sm.faults),
            ("ticked_cycles", l.ticked_cycles),
            ("idle_issue_cycles", sm.idle_issue_cycles),
            ("stall_raw", sm.stall_raw),
            ("stall_war", sm.stall_war),
            ("stall_unit", sm.stall_unit),
            ("stall_log", sm.stall_log),
            ("fetch_blocked", sm.fetch_blocked),
        ] {
            v.push((format!("sm.{name}"), value as f64, "count"));
        }
        let mem = &l.mem;
        v.extend([
            ("mem.requests".into(), mem.requests as f64, "count"),
            (
                "mem.l1_hit_ratio".into(),
                ratio(mem.l1_hits, mem.l1_hits + mem.l1_misses),
                "ratio",
            ),
            (
                "mem.l2_hit_ratio".into(),
                ratio(mem.l2_hits, mem.l2_hits + mem.l2_misses),
                "ratio",
            ),
            ("mem.walks".into(), mem.walks as f64, "count"),
            (
                "mem.faulted_requests".into(),
                mem.faulted_requests as f64,
                "count",
            ),
            ("mem.mshr_retries".into(), mem.mshr_retries as f64, "count"),
            (
                "mem.retries_per_request".into(),
                ratio(mem.mshr_retries, mem.requests),
                "ratio",
            ),
        ]);
        for span in TRACED_SPANS {
            v.push((
                format!("self_ms.{span}"),
                *l.self_ms.get(span).unwrap_or(&0.0),
                "ms",
            ));
        }
        v.push(("trace.overhead_frac".into(), l.trace_overhead, "ratio"));
        v.push(("trace.spans".into(), l.spans as f64, "count"));
        v
    }
}

/// The spans a traced run records, in layer order.
const TRACED_SPANS: [&str; 6] = [
    "workloads.build",
    "workloads.by_name",
    "exec.pass",
    "sim.run",
    "serve.submit",
    "serve.watch",
];

/// Peak resident set of this process in MiB (`VmHWM`); 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The workloads `--workload` accepts.
const WORKLOADS: [&str; 3] = ["resident_sweep", "paging_sweep", "serve_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {}", WORKLOADS.join(", ")))),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    }))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => return write_reference(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            eprintln!("       perfbench --write-reference");
            return ExitCode::from(2);
        }
    };
    let reference = Reference::parse(check::REFERENCE).expect("the stored reference parses");
    let scratch = PathBuf::from(SCRATCH_DIR);
    let m = match args.workload.as_str() {
        "resident_sweep" => sweep::run(
            Grid::Resident,
            args.seed,
            args.seconds,
            args.trace,
            &reference,
        ),
        "paging_sweep" => sweep::run(
            Grid::Paging,
            args.seed,
            args.seconds,
            args.trace,
            &reference,
        ),
        "serve_mix" => serve::run(args.seed, args.seconds, args.trace, &scratch),
        other => unreachable!("parse_args accepted {other}"),
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} host_cores={cores} workers={}",
        m.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gex::exec::threads()
    );
    println!(
        "samples: {} campaign(s) or pass(es), {} first result(s), {} point run(s), {} set-up(s)",
        m.campaign_ms.len(),
        m.first_result_ms.len(),
        m.layer.point_ms.len(),
        m.setup_s.len()
    );
    let (q1, q2, q3) = stats::quartiles(&m.campaign_ms);
    println!("campaign/pass ms quartiles: {q1:.1} {q2:.1} {q3:.1}");
    let setups: Vec<String> = m.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-up seconds: {}", setups.join(" "));
    println!(
        "error_frac {:.6} ({} of {} point(s) failed)",
        m.error_frac(),
        m.failed,
        m.attempted
    );
    for (k, v) in &m.layer.failed {
        println!("  failed per pass: {v} x {k}");
    }
    for n in &m.notes {
        println!("note: {n}");
    }
    for what in m.mismatches.iter().take(20) {
        println!("MISMATCH {what}");
    }
    let metrics = if args.trace {
        m.per_layer()
    } else {
        m.end_to_end()
    };
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>18.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let correct = m.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Simulate every grid point once, clean, and store the outcomes.
fn write_reference() -> ExitCode {
    let mut text = String::from(
        "# Reference outcomes: <workload> <point key> <outcome digest> <retirement digest>.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference\n",
    );
    for line in sweep::reference_lines() {
        text.push_str(&line);
        text.push('\n');
    }
    match std::fs::write(REFERENCE_PATH, text) {
        Ok(()) => {
            eprintln!("wrote {REFERENCE_PATH}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {REFERENCE_PATH}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Option<Args>, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_mix --seed 7 --seconds 10 --trace 1")
            .unwrap()
            .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 7, 10.0, true)
        );
        assert!(args("--write-reference").unwrap().is_none());
    }

    /// Metric names listed in one section of the repository's
    /// `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted")].to_string())
            .collect()
    }

    #[test]
    fn prints_exactly_the_metrics_the_benchmark_declares() {
        let m = Measured::new("resident_sweep", vec![1.0]);
        let names =
            |v: Vec<(String, f64, &str)>| v.into_iter().map(|(n, _, _)| n).collect::<Vec<_>>();
        assert_eq!(names(m.end_to_end()), listed("end_to_end"));
        assert_eq!(names(m.per_layer()), listed("per_layer"));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(listed("workloads"), workloads);
    }

    #[test]
    fn setups_run_at_least_three_then_until_budget_or_cap() {
        assert!(setup_due(&[]));
        assert!(setup_due(&[9.0, 9.0]));
        assert!(!setup_due(&[9.0, 9.0, 9.0]));
        assert!(setup_due(&[1.0, 1.0, 1.0]));
        assert!(!setup_due(&[1.0; 4]));
        assert!(setup_due(&[0.01; MAX_SETUPS - 1]));
        assert!(!setup_due(&[0.01; MAX_SETUPS]));
    }

    #[test]
    fn a_pass_sums_ticked_cycles_over_its_points() {
        let point = |key: &str| Point {
            key: key.to_string(),
            workload: 0,
            residency: 0,
            sms: 1,
            scheme: gex::Scheme::Baseline,
            paging: gex::PagingMode::AllResident,
            inject: None,
        };
        let now = Instant::now();
        let at = stats::Interval {
            start: now,
            end: now,
        };
        let run = |cycles: u64| {
            let mut r = gex::GpuRunReport::default();
            r.sm.cycles = cycles;
            sweep::PointRun { at, result: Ok(r) }
        };
        let pass = Pass {
            at,
            first_leg_end: now,
            runs: vec![run(100), run(300)],
        };
        let mut layer = Layer::default();
        layer.add_pass(&[point("a"), point("b")], &pass);
        assert_eq!(layer.ticked_cycles, 400);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload serve_mix --seed -1 --seconds 1",
            "--workload serve_mix --seed 1 --seconds 0",
            "--workload serve_mix --seed 1 --seconds 1 --trace 2",
            "--workload serve_mix --seconds 1",
            "--workload serve_mix --seed 1 --seconds",
            "--bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
