//! The `serve_mix` workload: an in-process `gex-serve` daemon with a fresh
//! journal directory, driven by one closed-loop client per tenant. Each
//! client submits a campaign, watches it to its terminal state, then
//! submits the next one of its share of the seeded campaign sequence.

use crate::inputs::{self, CampaignInput};
use crate::stats;
use crate::sweep::{self, Built, Point};
use crate::trace::Tracer;
use crate::{peak_rss_mb, setup_due, timed_setup, Measured};
use gex::workloads::{suite, Preset};
use gex::{PagingMode, Scheme};
use gex_serve::{server, CampaignSpec, Client, ClientConfig, ClientError, Event};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tenants, one closed-loop client each.
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// Length of the generated campaign sequence; also the server's admission
/// bound on tracked campaigns, which it never forgets.
const MAX_CAMPAIGNS: usize = 4096;

/// Simulated SMs of every campaign point.
const SMS: u32 = 16;

/// Direct `suite::by_name` calls timed by a traced run.
const BY_NAME_CALLS: usize = 3;

#[derive(Debug)]
enum Ending {
    /// Watched to a terminal state.
    Finished(String),
    /// Load-shed at submit.
    Shed,
    /// Rejected at submit, or the connection failed.
    Failed(String),
}

/// One campaign as its client saw it.
#[derive(Debug)]
struct CampaignRun {
    index: usize,
    submitted: Instant,
    acked: Instant,
    first_result: Option<Instant>,
    ended: Instant,
    ending: Ending,
    events: Vec<Event>,
    traced: bool,
}

fn spec_of(c: &CampaignInput) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        Preset::Test,
        SMS,
        vec![c.workload.to_string()],
        c.schemes.to_vec(),
    );
    spec.seed = Some(c.inject_seed);
    spec
}

/// Drive one tenant's closed loop until `seconds` have passed and its
/// share of the first [`inputs::deck_prefix`] campaigns is done: those
/// always run, and `sim_cycles` sums their fresh campaigns. A traced run
/// records spans for every other round of campaigns, so traced and
/// untraced campaigns interleave.
fn tenant_loop(
    tenant: usize,
    client: &mut Client,
    campaigns: &[CampaignInput],
    begin: Instant,
    seconds: f64,
    tracer: &Tracer,
    traced: bool,
) -> Vec<CampaignRun> {
    let mut runs = Vec::new();
    let name = TENANTS[tenant];
    for index in (tenant..campaigns.len()).step_by(TENANTS.len()) {
        let elapsed = begin.elapsed().as_secs_f64();
        if elapsed >= seconds && index >= inputs::deck_prefix() {
            break;
        }
        let traced_now = traced && (index / TENANTS.len()) % 2 == 1;
        let record = |name, parent, start, end| {
            traced_now
                .then(|| tracer.record(name, index as u64, parent, start, end))
                .flatten()
        };
        let campaign = format!("c{index}");
        let spec = spec_of(&campaigns[index]);
        let submitted = Instant::now();
        let ack = client.submit(name, &campaign, &spec);
        let acked = Instant::now();
        record("serve.submit", None, submitted, acked);
        let mut run = CampaignRun {
            index,
            submitted,
            acked,
            first_result: None,
            ended: acked,
            ending: Ending::Shed,
            events: Vec::new(),
            traced: traced_now,
        };
        match ack {
            Ok(_) => {
                let watched = client.watch(name, &campaign, |e| {
                    if run.first_result.is_none() && matches!(e, Event::Point { .. }) {
                        run.first_result = Some(Instant::now());
                    }
                    run.events.push(e.clone());
                });
                run.ended = Instant::now();
                let watch = record("serve.watch", None, acked, run.ended);
                if let Some(first) = run.first_result {
                    record("serve.first_result", watch, first, first);
                }
                run.ending = match watched {
                    Ok(state) => Ending::Finished(state),
                    Err(e) => Ending::Failed(format!("watch: {e}")),
                };
            }
            Err(ClientError::Shed(_)) => run.ending = Ending::Shed,
            Err(e) => run.ending = Ending::Failed(format!("submit: {e}")),
        }
        runs.push(run);
    }
    runs
}

/// A started daemon with one connected client per tenant.
struct Daemon {
    handle: server::ServerHandle,
    clients: Vec<Client>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf) -> Daemon {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the journal directory");
        let cfg = server::ServerConfig {
            journal_dir: Some(dir.clone()),
            max_campaigns: MAX_CAMPAIGNS,
            ..server::ServerConfig::default()
        };
        let handle = server::start(cfg).expect("start the campaign server");
        let addr = handle.addr().to_string();
        let clients = TENANTS
            .iter()
            .map(|_| {
                let mut c =
                    Client::connect(&addr, ClientConfig::default()).expect("connect a client");
                c.ping().expect("the server answers a ping");
                c
            })
            .collect();
        Daemon {
            handle,
            clients,
            dir,
        }
    }

    fn stop(self) {
        drop(self.clients);
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Build every suite workload at the Test preset, in [`inputs::SUITE`]
/// order: the traces the output check re-simulates.
fn build_suite(tracer: &Tracer) -> Built {
    let mut b = Built::new();
    for name in inputs::SUITE {
        b.add_workload(name, Preset::Test, tracer);
    }
    b
}

/// Run the serve mix for `seconds` and check every served point.
pub fn run(seed: u64, seconds: f64, traced: bool, scratch: &Path) -> Measured {
    let campaigns = inputs::campaign_sequence(seed, MAX_CAMPAIGNS);
    let tracer = Tracer::default();
    tracer.set_enabled(traced);
    let journal = scratch.join(format!("journal-{}", std::process::id()));
    let mut setup_s = Vec::new();
    let (mut built, mut daemon) = timed_setup(&mut setup_s, || {
        (build_suite(&tracer), Daemon::start(journal.clone()))
    });

    let cache_before = gex::cache::stats();
    let begin = Instant::now();
    let mut runs: Vec<CampaignRun> = std::thread::scope(|s| {
        let workers: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                let (campaigns, tracer) = (&campaigns, &tracer);
                s.spawn(move || tenant_loop(t, client, campaigns, begin, seconds, tracer, traced))
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a tenant client panicked"))
            .collect()
    });
    let cache = gex::cache::stats().since(&cache_before);
    let peak_rss_mb = peak_rss_mb();
    daemon.stop();
    // The set-ups still due run now, each in place of the last, so one
    // copy of the suite's traces is alive at a time.
    while setup_due(&setup_s) {
        drop(std::mem::take(&mut built));
        let (suite, daemon) = timed_setup(&mut setup_s, || {
            (build_suite(&tracer), Daemon::start(journal.clone()))
        });
        daemon.stop();
        built = suite;
    }
    runs.sort_by_key(|r| r.index);

    let mut m = Measured::new("serve_mix", setup_s);
    m.cache = cache;
    m.peak_rss_mb = peak_rss_mb;
    let finished: Vec<&CampaignRun> = runs
        .iter()
        .filter(|r| matches!(r.ending, Ending::Finished(_)))
        .collect();
    let last_end = finished.iter().map(|r| r.ended).max().unwrap_or(begin);
    let elapsed = (last_end - begin).as_secs_f64().max(f64::MIN_POSITIVE);
    m.campaign_ms = finished.iter().map(|r| ms(r.submitted, r.ended)).collect();
    m.first_result_ms = finished
        .iter()
        .filter_map(|r| r.first_result.map(|f| ms(r.submitted, f)))
        .collect();
    m.campaigns_per_s = finished.len() as f64 / elapsed;
    m.round_s = elapsed / (finished.len() as f64 / TENANTS.len() as f64);
    m.layer.submit_ms = runs.iter().map(|r| ms(r.submitted, r.acked)).collect();

    // Re-simulate every distinct served point directly and compare.
    let point_key = |c: &CampaignInput, scheme: Scheme| {
        format!("{}/{scheme:?}/{:x}", c.workload, c.inject_seed)
    };
    let mut index_of: HashMap<String, usize> = HashMap::new();
    for r in &finished {
        let c = &campaigns[r.index];
        for &scheme in &c.schemes {
            index_of.entry(point_key(c, scheme)).or_insert_with(|| {
                let workload = inputs::SUITE
                    .iter()
                    .position(|&n| n == c.workload)
                    .expect("suite name");
                built.points.push(Point {
                    key: point_key(c, scheme),
                    workload,
                    residency: 0,
                    sms: SMS,
                    scheme,
                    paging: PagingMode::AllResident,
                    inject: Some(c.inject_seed),
                });
                built.points.len() - 1
            });
        }
    }
    let direct = sweep::run_pass(&built, &tracer, 0);
    for r in &runs {
        let c = &campaigns[r.index];
        m.attempted += c.schemes.len() as u64;
        match &r.ending {
            Ending::Finished(state) if state == "done" => {}
            Ending::Finished(state) => m.notes.push(format!("campaign c{} ended {state}", r.index)),
            Ending::Shed => {
                m.layer.shed += 1;
                m.failed += c.schemes.len() as u64;
                continue;
            }
            Ending::Failed(why) => {
                m.failed += c.schemes.len() as u64;
                m.notes.push(format!("campaign c{}: {why}", r.index));
                continue;
            }
        }
        for &scheme in &c.schemes {
            let key = format!("{}/{scheme:?}", c.workload);
            let want = &direct.runs[index_of[&point_key(c, scheme)]].result;
            let served = r.events.iter().find_map(|e| match e {
                Event::Point { key: k, cycles } if *k == key => Some(Ok(*cycles)),
                Event::Quarantine {
                    key: k,
                    kind,
                    error,
                } if *k == key => Some(Err(format!("{kind}: {error}"))),
                _ => None,
            });
            match (served, want) {
                (Some(Ok(cycles)), Ok(report)) if cycles == report.cycles => {
                    if r.index < inputs::deck_prefix() && c.repeat_of.is_none() {
                        m.sim_cycles += cycles as f64;
                    }
                }
                (Some(Ok(cycles)), Ok(report)) => m.mismatch(format!(
                    "c{} {key}: served {cycles} cycles, direct run {}",
                    r.index, report.cycles
                )),
                (Some(Ok(cycles)), Err(e)) => m.mismatch(format!(
                    "c{} {key}: served {cycles} cycles, direct run failed: {e}",
                    r.index
                )),
                (Some(Err(why)), want) => {
                    m.layer.quarantined += 1;
                    match want {
                        Ok(report) => m.mismatch(format!(
                            "c{} {key}: served quarantined ({why}), direct run took {} cycles",
                            r.index, report.cycles
                        )),
                        Err(_) => {
                            m.failed += 1;
                            m.notes
                                .push(format!("c{} {key} quarantined: {why}", r.index));
                        }
                    }
                }
                (None, _) => m.mismatch(format!("c{} {key}: no result served", r.index)),
            }
        }
    }
    m.layer.absorb_timing(&direct, built.points.len());
    m.layer.add_pass(&built.points, &direct);
    m.layer.dyn_instrs = built.workloads.iter().map(|w| w.trace.dyn_instrs()).sum();
    m.layer.build_ms = std::mem::take(&mut built.build_ms).iter().sum();

    if traced {
        for (i, c) in campaigns.iter().take(BY_NAME_CALLS).enumerate() {
            let start = Instant::now();
            let w = suite::by_name(c.workload, Preset::Test).expect("suite name resolves");
            let end = Instant::now();
            std::hint::black_box(w);
            tracer.record("workloads.by_name", i as u64, None, start, end);
            m.layer.by_name_ms.push(ms(start, end));
        }
        tracer.set_enabled(false);
        let of = |traced: bool| {
            stats::median(
                &finished
                    .iter()
                    .filter(|r| r.traced == traced)
                    .map(|r| ms(r.submitted, r.ended))
                    .collect::<Vec<_>>(),
            )
        };
        m.set_trace(&tracer, of(true) / of(false) - 1.0);
    }
    m
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}
