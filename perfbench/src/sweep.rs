//! The figure-grid workloads: `resident_sweep` and `paging_sweep`. Each
//! pass runs every point of a fixed grid through `gex_exec::par_map`, one
//! `Gpu::try_run` per point, bypassing the result cache so every pass
//! simulates.

use crate::check::{self, Reference};
use crate::inputs;
use crate::stats::{self, Interval};
use crate::trace::{SpanRef, Tracer};
use crate::{peak_rss_mb, setup_due, timed_setup, Measured};
use gex::workloads::{self as wl, Preset, Workload};
use gex::{
    BlockSwitchConfig, Gpu, GpuConfig, GpuRunReport, InjectionPlan, Interconnect, LocalFaultConfig,
    PagingMode, Residency, Scheme, SimError,
};
use gex_serve::wire::scheme_token;
use std::time::Instant;

/// Which figure grid a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Figures 10+11, everything resident, Test preset, 16 SMs.
    Resident,
    /// Figure 12, the Section 5.5 SM-count axis and Figures 13 and 14 under
    /// demand paging, one leg each. Figure 12, the longest leg, runs first,
    /// so the time to the pass's first result spans seconds of simulation
    /// rather than the one second of the shortest legs.
    Paging,
}

impl Grid {
    /// Workload name, as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Grid::Resident => "resident_sweep",
            Grid::Paging => "paging_sweep",
        }
    }
}

/// The Parboil half of [`inputs::SUITE`].
const PARBOIL: [&str; 11] = [
    "bfs",
    "cutcp",
    "histo",
    "lbm",
    "mri-gridding",
    "mri-q",
    "sad",
    "sgemm",
    "spmv",
    "stencil",
    "tpacf",
];

/// Figure 13's allocator benchmarks plus the quad-tree sample.
const HALLOC: [&str; 5] = [
    "halloc-fixed",
    "halloc-prob",
    "halloc-chain",
    "halloc-stream",
    "quad-tree",
];

/// Figure 12 at Bench: the kernels on which the local scheduler switches.
const SWITCHING: [&str; 4] = ["stencil", "mri-gridding", "histo", "bfs"];

/// Section 5.5's SM-count axis for bfs under demand paging. The 2-SM point
/// trips the forward-progress watchdog (a known wedge); it stays in the
/// grid so the failure shows in the error share.
const BFS_SMS: [u32; 3] = [2, 4, 8];

/// Build one suite workload through its module's builder.
pub fn build_workload(name: &str, preset: Preset) -> Workload {
    match name {
        "bfs" => wl::bfs::build(preset),
        "cutcp" => wl::cutcp::build(preset),
        "histo" => wl::histo::build(preset),
        "lbm" => wl::lbm::build(preset),
        "mri-gridding" => wl::mri_gridding::build(preset),
        "mri-q" => wl::mri_q::build(preset),
        "sad" => wl::sad::build(preset),
        "sgemm" => wl::sgemm::build(preset),
        "spmv" => wl::spmv::build(preset),
        "stencil" => wl::stencil::build(preset),
        "tpacf" => wl::tpacf::build(preset),
        "halloc-fixed" => wl::halloc::fixed(preset),
        "halloc-prob" => wl::halloc::prob(preset),
        "halloc-chain" => wl::halloc::chain(preset),
        "halloc-stream" => wl::halloc::stream(preset),
        "quad-tree" => wl::quadtree::build(preset),
        other => panic!("no builder for workload {other:?}"),
    }
}

/// One simulation point of a grid.
#[derive(Debug, Clone)]
pub struct Point {
    /// Reference key, e.g. `fig14/bfs/local`.
    pub key: String,
    /// Index into [`Built::workloads`].
    pub workload: usize,
    /// Index into [`Built::residencies`].
    pub residency: usize,
    /// Simulated SM count.
    pub sms: u32,
    /// Exception scheme.
    pub scheme: Scheme,
    /// Paging mode.
    pub paging: PagingMode,
    /// `InjectionPlan::light` seed, for chaos-injected points.
    pub inject: Option<u64>,
}

impl Point {
    fn gpu(&self) -> Gpu {
        let gpu = Gpu::new(
            GpuConfig::kepler_k20().with_sms(self.sms),
            self.scheme,
            self.paging,
        );
        match self.inject {
            Some(seed) => gpu.inject(InjectionPlan::light(seed)),
            None => gpu,
        }
    }
}

/// A grid with its traces built.
#[derive(Debug, Default)]
pub struct Built {
    /// Built workloads.
    pub workloads: Vec<Workload>,
    /// Initial placements; index 0 is the empty one resident runs share.
    pub residencies: Vec<Residency>,
    /// The points, in pass order.
    pub points: Vec<Point>,
    /// Milliseconds each workload build took.
    pub build_ms: Vec<f64>,
    /// Ends of the legs closed so far; the points after the last one form
    /// a final leg.
    leg_ends: Vec<usize>,
}

impl Built {
    /// An empty grid with the shared empty residency at index 0.
    pub fn new() -> Self {
        Built {
            residencies: vec![Residency::new()],
            ..Built::default()
        }
    }

    /// Build `name` at `preset`, recording a `workloads.build` span.
    pub fn add_workload(&mut self, name: &str, preset: Preset, tracer: &Tracer) -> usize {
        let start = Instant::now();
        let w = build_workload(name, preset);
        let end = Instant::now();
        tracer.record(
            "workloads.build",
            self.workloads.len() as u64,
            None,
            start,
            end,
        );
        self.build_ms.push((end - start).as_secs_f64() * 1e3);
        self.workloads.push(w);
        self.workloads.len() - 1
    }

    /// Close the current leg: the points added since the previous leg run
    /// as one `par_map` call, as each figure's sweep does.
    fn end_leg(&mut self) {
        self.leg_ends.push(self.points.len());
    }

    /// Point index ranges of the legs, in pass order.
    pub fn legs(&self) -> Vec<std::ops::Range<usize>> {
        let mut ends = self.leg_ends.clone();
        if ends.last() != Some(&self.points.len()) {
            ends.push(self.points.len());
        }
        let mut start = 0;
        ends.into_iter()
            .map(|end| {
                let leg = start..end;
                start = end;
                leg
            })
            .collect()
    }

    fn add_residency(&mut self, r: Residency) -> usize {
        self.residencies.push(r);
        self.residencies.len() - 1
    }

    fn point(
        &mut self,
        key: String,
        workload: usize,
        residency: usize,
        sms: u32,
        scheme: Scheme,
        paging: PagingMode,
    ) {
        self.points.push(Point {
            key,
            workload,
            residency,
            sms,
            scheme,
            paging,
            inject: None,
        });
    }
}

/// Build `grid`'s traces and points. `seed` picks which Figure 14 points
/// run under light injection; `None` builds every point clean (the
/// reference run).
pub fn build(grid: Grid, seed: Option<u64>, tracer: &Tracer) -> Built {
    let mut b = Built::new();
    match grid {
        Grid::Resident => {
            for name in PARBOIL {
                let w = b.add_workload(name, Preset::Test, tracer);
                for scheme in inputs::schemes() {
                    b.point(
                        format!("fig10-11/{name}/{}", scheme_token(scheme)),
                        w,
                        0,
                        16,
                        scheme,
                        PagingMode::AllResident,
                    );
                }
            }
        }
        Grid::Paging => {
            let nvlink = Interconnect::nvlink();
            let local = |local_handling| PagingMode::Demand {
                interconnect: nvlink,
                block_switch: None,
                local_handling,
            };
            for name in SWITCHING {
                let w = b.add_workload(name, Preset::Bench, tracer);
                let r = b.add_residency(b.workloads[w].demand_residency());
                for (label, block_switch) in [
                    ("demand", None),
                    ("switch", Some(BlockSwitchConfig::default())),
                ] {
                    let paging = PagingMode::Demand {
                        interconnect: nvlink,
                        block_switch,
                        local_handling: None,
                    };
                    b.point(
                        format!("fig12/{name}/{label}"),
                        w,
                        r,
                        16,
                        Scheme::ReplayQueue,
                        paging,
                    );
                }
            }
            b.end_leg();
            // bfs at Bench, the last SWITCHING entry, is the workload just built.
            let (w, r) = (b.workloads.len() - 1, b.residencies.len() - 1);
            for sms in BFS_SMS {
                b.point(
                    format!("sec5.5/bfs/{sms}sm"),
                    w,
                    r,
                    sms,
                    Scheme::ReplayQueue,
                    PagingMode::demand(nvlink),
                );
            }
            b.end_leg();
            for name in HALLOC {
                let w = b.add_workload(name, Preset::Bench, tracer);
                let r = b.add_residency(b.workloads[w].heap_lazy_residency());
                b.point(
                    format!("fig13/{name}/cpu"),
                    w,
                    r,
                    16,
                    Scheme::ReplayQueue,
                    local(None),
                );
                let handler = Some(LocalFaultConfig::default());
                b.point(
                    format!("fig13/{name}/local"),
                    w,
                    r,
                    16,
                    Scheme::ReplayQueue,
                    local(handler),
                );
            }
            b.end_leg();
            let first_fig14 = b.points.len();
            for name in PARBOIL {
                let w = b.add_workload(name, Preset::Test, tracer);
                let r = b.add_residency(b.workloads[w].outputs_lazy_residency());
                b.point(
                    format!("fig14/{name}/cpu"),
                    w,
                    r,
                    16,
                    Scheme::ReplayQueue,
                    local(None),
                );
                let handler = Some(LocalFaultConfig::default());
                b.point(
                    format!("fig14/{name}/local"),
                    w,
                    r,
                    16,
                    Scheme::ReplayQueue,
                    local(handler),
                );
            }
            if let Some(seed) = seed {
                let seeds = inputs::injection_seeds(seed, b.points.len() - first_fig14);
                for (p, s) in b.points[first_fig14..].iter_mut().zip(seeds) {
                    p.inject = s;
                }
            }
        }
    }
    b
}

/// One point's run inside a pass.
#[derive(Debug)]
pub struct PointRun {
    /// When `Gpu::try_run` was called and returned.
    pub at: Interval,
    /// What it returned.
    pub result: Result<GpuRunReport, SimError>,
}

/// One pass over a grid: one `par_map` call per leg.
#[derive(Debug)]
pub struct Pass {
    /// When the pass started and its last `par_map` returned.
    pub at: Interval,
    /// When the first leg's `par_map` returned: the caller sees no
    /// result before that.
    pub first_leg_end: Instant,
    /// Per point, in grid order.
    pub runs: Vec<PointRun>,
}

impl Pass {
    /// Host seconds the pass took.
    pub fn wall_s(&self) -> f64 {
        (self.at.end - self.at.start).as_secs_f64()
    }

    /// Milliseconds from the pass start to the first results the caller
    /// receives: the first leg's.
    pub fn first_result_ms(&self) -> f64 {
        (self.first_leg_end - self.at.start).as_secs_f64() * 1e3
    }

    /// Summed host seconds the points ran.
    pub fn busy_s(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| (r.at.end - r.at.start).as_secs_f64())
            .sum()
    }
}

/// Run every point of `built` once, one `par_map` call per leg, recording
/// an `exec.pass` span per call with one `sim.run` child per point.
pub fn run_pass(built: &Built, tracer: &Tracer, pass_id: u64) -> Pass {
    let start = Instant::now();
    let mut runs = Vec::with_capacity(built.points.len());
    let mut first_leg_end = None;
    for leg in built.legs() {
        let span: Option<SpanRef> = tracer.open("exec.pass", pass_id, Instant::now());
        let points = built.points[leg.clone()].iter().zip(leg).collect();
        runs.extend(gex::exec::par_map(points, |(p, i)| {
            let gpu = p.gpu();
            let trace = &built.workloads[p.workload].trace;
            let residency = &built.residencies[p.residency];
            let start = Instant::now();
            let result = gpu.try_run(trace, residency);
            let end = Instant::now();
            tracer.record("sim.run", i as u64, span, start, end);
            PointRun {
                at: Interval { start, end },
                result,
            }
        }));
        let end = Instant::now();
        tracer.close(span, end);
        first_leg_end.get_or_insert(end);
    }
    let end = Instant::now();
    Pass {
        at: Interval { start, end },
        first_leg_end: first_leg_end.unwrap_or(end),
        runs,
    }
}

/// Run a sweep workload: set up once, then run passes until `seconds`
/// have gone by (at least one; with tracing, at least two, every second
/// pass traced), and check every point against the reference. The further
/// set-ups (see [`setup_due`]) run one after each pass and the rest after
/// the last; they do not count towards `seconds`. Each replaces the grid,
/// which is dropped first, so one copy of the traces is alive at a time, as
/// in a run that sets up once.
pub fn run(grid: Grid, seed: u64, seconds: f64, traced: bool, reference: &Reference) -> Measured {
    let tracer = Tracer::default();
    tracer.set_enabled(traced);
    let mut setup_s = Vec::new();
    let mut built = timed_setup(&mut setup_s, || build(grid, Some(seed), &tracer));
    tracer.set_enabled(false);

    let mut m = Measured::new(grid.name(), setup_s);
    let cache_before = gex::cache::stats();
    let begin = Instant::now();
    let mut timings: Vec<(f64, bool)> = Vec::new();
    let mut last = None;
    let mut setting_up_s = 0.0;
    let min_passes = if traced { 2 } else { 1 };
    let measured = |setting_up_s: f64| begin.elapsed().as_secs_f64() - setting_up_s;
    while timings.len() < min_passes || measured(setting_up_s) < seconds {
        let trace_this = traced && timings.len() % 2 == 1;
        tracer.set_enabled(trace_this);
        let pass = run_pass(&built, &tracer, timings.len() as u64);
        tracer.set_enabled(false);
        m.absorb_pass(grid.name(), &built.points, &pass, reference);
        timings.push((pass.wall_s(), trace_this));
        last = Some(pass);
        if timings.len() == 1 {
            m.peak_rss_mb = peak_rss_mb();
        }
        if setup_due(&m.setup_s) {
            let start = Instant::now();
            drop(std::mem::take(&mut built));
            built = timed_setup(&mut m.setup_s, || build(grid, Some(seed), &tracer));
            setting_up_s += start.elapsed().as_secs_f64();
        }
    }
    let measured_s = measured(setting_up_s);
    while setup_due(&m.setup_s) {
        drop(std::mem::take(&mut built));
        built = timed_setup(&mut m.setup_s, || build(grid, Some(seed), &tracer));
    }
    m.cache = gex::cache::stats().since(&cache_before);
    let last = last.expect("at least one pass");
    let walls: Vec<f64> = timings.iter().map(|&(s, _)| s).collect();
    m.round_s = stats::median(&walls);
    m.campaigns_per_s = walls.len() as f64 / measured_s;
    m.sim_cycles = last
        .runs
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|r| r.cycles)
        .sum::<u64>() as f64;
    m.layer.build_ms = built.build_ms.iter().sum();
    m.layer.dyn_instrs = built.workloads.iter().map(|w| w.trace.dyn_instrs()).sum();
    m.layer.add_pass(&built.points, &last);
    for (p, run) in built.points.iter().zip(&last.runs) {
        if let Err(e) = &run.result {
            let diagnostic = e.to_string();
            let first_line = diagnostic.lines().next().unwrap_or_default();
            m.notes.push(format!("{} failed: {first_line}", p.key));
        }
    }
    if traced {
        let of = |traced: bool| {
            stats::median(
                &timings
                    .iter()
                    .filter(|t| t.1 == traced)
                    .map(|t| t.0)
                    .collect::<Vec<_>>(),
            )
        };
        m.set_trace(&tracer, of(true) / of(false) - 1.0);
    }
    m
}

/// Run every grid once, clean, and return the reference lines.
pub fn reference_lines() -> Vec<String> {
    let tracer = Tracer::default();
    let mut lines = Vec::new();
    for grid in [Grid::Resident, Grid::Paging] {
        let built = build(grid, None, &tracer);
        let pass = run_pass(&built, &tracer, 0);
        for (p, run) in built.points.iter().zip(&pass.runs) {
            lines.push(check::reference_line(grid.name(), &p.key, &run.result));
        }
        eprintln!(
            "{}: {} point(s) in {:.1} s",
            grid.name(),
            built.points.len(),
            pass.wall_s()
        );
    }
    lines
}
