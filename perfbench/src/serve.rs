//! `serve-jobs`: an in-process `serve` daemon on a unix socket
//! (`max_threads` 2) under a closed loop of 2 client connections. Each
//! client submits tiny jobs (`mbe` batched, `scheme parity1d`,
//! `montecarlo`), watches each to its end and fetches the result; every
//! fourth job it also reads `status` and `list` of its own tenant. Each
//! client submits as one fixed tenant, so its `list` grows with the jobs
//! it has run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cppc_bench::experiments::{parse_config, parse_fault, parse_scheme, scheme_experiment};
use cppc_bench::mbe::MbeBatchExec;
use cppc_campaign::json::Json;
use cppc_campaign::rng::rngs::StdRng;
use cppc_campaign::PerTrial;
use cppc_fault::campaign::OutcomeTally;
use cppc_reliability::montecarlo::{simulate_trial_into, MonteCarloAccumulator, MonteCarloConfig};
use cppc_serve::runner::{montecarlo_result_json, tally_result_json};
use cppc_serve::{serve, Client, ClientError, JobKind, JobSpec, Priority, ServerConfig};

use crate::span::SpanLog;
use crate::stats::{self, derive, Digest, ObsSnapshot};
use crate::{Checks, Layers, Opts, Run, Size};

const CLIENTS: u64 = 2;
const MAX_THREADS: usize = 2;
/// Jobs per client in the traced run (each phase) and in the probe.
const TRACED_JOBS: u64 = 30;
const PROBE_JOBS: u64 = 6;
/// Client ids of the set-up warm-up jobs (the load uses 0 and 1).
const WARMUP_CLIENT: u64 = 100;
/// Jobs per client that `sim_digest` covers.
const DIGEST_JOBS: u64 = 16;

/// The `n`th job of a client: a rotation over the three tiny kinds.
fn job_spec(seed: u64, client: u64, n: u64) -> JobSpec {
    let seed = derive(seed, (client << 32) | n);
    match n % 3 {
        0 => {
            let mut spec = JobSpec::new(JobKind::Mbe, 4096, seed);
            spec.batch = 64;
            spec
        }
        1 => JobSpec::new(
            JobKind::Scheme {
                scheme: "parity1d".into(),
                config: "paper".into(),
                fault: "4x4".into(),
            },
            256,
            seed,
        ),
        _ => JobSpec::new(
            JobKind::MonteCarlo {
                rate: 40.0,
                domains: 8,
                tavg: 0.0004,
            },
            2000,
            seed,
        ),
    }
}

/// The job's result computed directly with `run_exec`, bypassing the
/// daemon.
fn direct_result(spec: &JobSpec) -> Result<String, String> {
    let cfg = spec.campaign_config(1);
    let doc = match &spec.kind {
        JobKind::Mbe => {
            let r =
                cppc_campaign::run_exec::<OutcomeTally, _>(&cfg, MbeBatchExec::solid(spec.batch));
            tally_result_json(&r.result)
        }
        JobKind::Scheme {
            scheme,
            config,
            fault,
        } => {
            let exp = scheme_experiment(
                parse_scheme(scheme)?,
                parse_config(config)?,
                parse_fault(fault)?,
            );
            let r = cppc_campaign::run_exec::<OutcomeTally, _>(&cfg, PerTrial(exp));
            tally_result_json(&r.result)
        }
        JobKind::MonteCarlo {
            rate,
            domains,
            tavg,
        } => {
            let mc = MonteCarloConfig {
                faults_per_hour: *rate,
                domains: *domains as usize,
                tavg_hours: *tavg,
                trials: u32::try_from(spec.trials).map_err(|e| e.to_string())?,
            };
            let r = cppc_campaign::run_exec::<MonteCarloAccumulator, _>(
                &cfg,
                PerTrial(move |rng: &mut StdRng, _| simulate_trial_into(&mc, rng, &mut Vec::new())),
            );
            montecarlo_result_json(&r.result)
        }
        other => return Err(format!("unexpected job kind {}", other.name())),
    };
    Ok(doc.to_string_compact())
}

/// A running in-process daemon.
struct Daemon {
    socket: PathBuf,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Starts a daemon on a fresh data dir and returns it with the first
    /// client connection it accepted.
    fn start(dir: &Path) -> Result<(Daemon, Client), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let socket = dir.join("s.sock");
        let mut cfg = ServerConfig::new(dir.join("data"), &socket);
        cfg.max_threads = MAX_THREADS;
        let thread = std::thread::spawn(move || serve(cfg));
        let t0 = Instant::now();
        loop {
            if let Ok(client) = Client::connect_unix(&socket) {
                return Ok((Daemon { socket, thread }, client));
            }
            if thread.is_finished() || t0.elapsed() > Duration::from_secs(10) {
                return Err("daemon did not come up".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect_unix(&self.socket).map_err(|e| e.to_string())?;
        c.shutdown().map_err(|e| e.to_string())?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    /// (spec, result document) of every finished job.
    results: Vec<(JobSpec, String)>,
    rejected: u64,
    failures: Vec<String>,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.latencies_ms.extend(other.latencies_ms);
        self.results.extend(other.results);
        self.rejected += other.rejected;
        self.failures.extend(other.failures);
    }
}

enum Until {
    Deadline(Instant),
    Jobs(u64),
}

/// One client's closed loop. With `log` set, each request is a span.
fn client_loop(
    mut c: Client,
    seed: u64,
    client: u64,
    until: &Until,
    mut log: Option<&mut SpanLog>,
) -> ClientLog {
    let mut out = ClientLog::default();
    let tenant = format!("client{client}");
    let span = |log: &mut Option<&mut SpanLog>, name: &'static str, t: Instant| {
        if let Some(l) = log.as_deref_mut() {
            l.since(name, None, t);
        }
    };
    let mut n = 0;
    loop {
        match until {
            Until::Deadline(d) if Instant::now() >= *d => break,
            Until::Jobs(k) if n >= *k => break,
            _ => {}
        }
        let spec = job_spec(seed, client, n);
        n += 1;
        let t_submit = Instant::now();
        let id = loop {
            match c.submit(&tenant, Priority::Normal, spec.clone()) {
                Ok(id) => break Some(id),
                Err(ClientError::Remote {
                    retry_after_ms: Some(ms),
                    ..
                }) => {
                    out.rejected += 1;
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Err(e) => {
                    out.failures.push(format!("submit: {e}"));
                    break None;
                }
            }
        };
        span(&mut log, "serve.submit", t_submit);
        let Some(id) = id else { continue };
        let t_watch = Instant::now();
        let end = c.watch(id, |_| {});
        span(&mut log, "serve.watch", t_watch);
        let state = end
            .as_ref()
            .ok()
            .and_then(|d| d.get("state"))
            .and_then(Json::as_str)
            .map(str::to_string);
        if state.as_deref() != Some("done") {
            out.failures.push(format!("job {id} ended {state:?}"));
            continue;
        }
        let t_result = Instant::now();
        match c.result(id) {
            Ok(doc) => {
                span(&mut log, "serve.result", t_result);
                out.latencies_ms
                    .push(t_submit.elapsed().as_secs_f64() * 1e3);
                out.results.push((spec, doc.to_string_compact()));
            }
            Err(e) => out.failures.push(format!("result {id}: {e}")),
        }
        if n % 4 == 0 {
            let t_status = Instant::now();
            let ok = c.status(id).is_ok() && c.list(Some(&tenant)).is_ok();
            span(&mut log, "serve.status", t_status);
            if !ok {
                out.failures.push(format!("status/list after job {id}"));
            }
        }
    }
    out
}

/// Runs `CLIENTS` client loops concurrently and merges what they saw.
fn load(socket: &Path, seed: u64, until: &Until, log: Option<&mut SpanLog>) -> ClientLog {
    let origin = log.as_ref().map(|l| l.origin());
    let (logs, spans): (Vec<ClientLog>, Vec<Option<SpanLog>>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut clog = origin.map(SpanLog::new);
                    let seen = match Client::connect_unix(socket) {
                        Ok(c) => client_loop(c, seed, client, until, clog.as_mut()),
                        Err(e) => ClientLog {
                            failures: vec![format!("connect: {e}")],
                            ..ClientLog::default()
                        },
                    };
                    (seen, clog)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .unzip()
    });
    if let Some(log) = log {
        for s in spans.into_iter().flatten() {
            log.absorb(s);
        }
    }
    let mut all = ClientLog::default();
    for l in logs {
        all.absorb(l);
    }
    all
}

/// Checks every finished job against a direct `run_exec` of its spec.
fn check_results(seen: &ClientLog, checks: &mut Checks) {
    checks.expect(seen.rejected == 0, || {
        format!("{} submissions rejected", seen.rejected)
    });
    for f in &seen.failures {
        checks.expect(false, || f.clone());
    }
    // Two checker threads; verdicts come back in job order.
    let half = seen.results.len().div_ceil(2).max(1);
    let verdicts: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = seen
            .results
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(spec, doc)| direct_result(spec).as_deref() == Ok(doc.as_str()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("checker thread"))
            .collect()
    });
    for ((spec, _), ok) in seen.results.iter().zip(verdicts) {
        checks.expect(ok, || {
            format!(
                "job {} seed {:#x}: daemon result != direct run_exec",
                spec.kind.name(),
                spec.seed
            )
        });
    }
}

/// Digest of the result documents of each client's first `jobs` jobs.
/// How many more a timed run finishes depends on speed, so they are
/// left out.
fn results_digest(seen: &ClientLog, seed: u64, jobs: u64) -> u64 {
    let mut digest = Digest::default();
    for client in 0..CLIENTS {
        for n in 0..jobs {
            let want = job_spec(seed, client, n).seed;
            let doc = seen.results.iter().find(|(spec, _)| spec.seed == want);
            digest.str(doc.map_or("missing", |(_, doc)| doc.as_str()));
        }
    }
    digest.value()
}

pub fn run(opts: &Opts) -> Run {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut warmups = ClientLog::default();
    let mut daemon = None;
    for i in 0..crate::SETUP_REPS {
        // Set-up: start a daemon on a fresh data dir and take one job of
        // each kind through it, so first-use costs (worker threads, warm
        // pool, journal files) are paid before the timed phase.
        let t = Instant::now();
        let started = Daemon::start(&opts.work.join(format!("d{i}"))).map(|(d, c)| {
            let client = WARMUP_CLIENT + i as u64;
            let warm = client_loop(c, opts.seed, client, &Until::Jobs(3), None);
            (d, warm)
        });
        setup_s.push(t.elapsed().as_secs_f64());
        match started {
            Ok((d, warm)) => {
                warmups.absorb(warm);
                if i + 1 == crate::SETUP_REPS {
                    daemon = Some(d);
                } else {
                    checks.expect_ok(d.stop());
                }
            }
            Err(e) => checks.expect(false, || e),
        }
    }
    let Some(daemon) = daemon else {
        return Run::failed(checks, setup_s, "jobs", "jobs_per_s");
    };

    let obs_before = ObsSnapshot::take();
    let cpu0 = stats::cpu_seconds();
    let t0 = Instant::now();
    let until = Until::Deadline(t0 + Duration::from_secs_f64(opts.seconds));
    let seen = load(&daemon.socket, opts.seed, &until, None);
    let timed_s = t0.elapsed().as_secs_f64();
    let cpu_s = stats::cpu_seconds() - cpu0;
    let obs = ObsSnapshot::take().since(&obs_before);
    checks.expect_ok(daemon.stop());

    check_results(&seen, &mut checks);
    check_results(&warmups, &mut checks);
    let digest = results_digest(&seen, opts.seed, DIGEST_JOBS);
    Run {
        setup_s,
        unit: "jobs",
        rate_name: "jobs_per_s",
        units: seen.results.len() as u64,
        rate: seen.results.len() as f64 / timed_s,
        timed_s,
        cpu_s,
        latency_name: "job submit -> result",
        latencies_ms: seen.latencies_ms,
        checks,
        digest,
        obs,
    }
}

/// `(count, total_ns)` of the daemon's `serve.job.ns` timer, read over
/// the wire.
fn job_timer(socket: &Path) -> Option<(u64, u64)> {
    let doc = Client::connect_unix(socket).ok()?.metrics().ok()?;
    let groups = doc.get("groups")?.as_arr()?;
    let m = groups
        .iter()
        .filter_map(|g| g.get("metrics").and_then(Json::as_arr))
        .flatten()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("serve.job.ns"))?;
    Some((m.get("count")?.as_u64()?, m.get("total_ns")?.as_u64()?))
}

pub fn traced(opts: &Opts, size: Size, log: &mut SpanLog) -> Layers {
    let jobs = match size {
        Size::Full => TRACED_JOBS,
        Size::Probe => PROBE_JOBS,
    };
    let mut layers = Layers::default();
    let daemon = match Daemon::start(&opts.work.join("traced")) {
        Ok((d, _)) => d,
        Err(e) => {
            layers.checks.expect(false, || e);
            return layers;
        }
    };
    let until = Until::Jobs(jobs);
    let t = Instant::now();
    let plain = load(&daemon.socket, opts.seed, &until, None);
    let wall_untraced = t.elapsed().as_secs_f64();

    let timer0 = job_timer(&daemon.socket);
    let obs0 = ObsSnapshot::take();
    let mut slog = SpanLog::new(log.origin());
    let t = Instant::now();
    let seen = load(&daemon.socket, opts.seed, &until, Some(&mut slog));
    let wall_traced = t.elapsed().as_secs_f64();
    let obs = ObsSnapshot::take().since(&obs0);
    let timer1 = job_timer(&daemon.socket);
    layers.checks.expect_ok(daemon.stop());

    check_results(&seen, &mut layers.checks);
    check_results(&plain, &mut layers.checks);
    let digest = results_digest(&seen, opts.seed, jobs);
    layers
        .checks
        .expect(digest == results_digest(&plain, opts.seed, jobs), || {
            "traced job results differ from the untraced pass".into()
        });

    let totals = slog.totals();
    log.absorb(slog);
    let mean_ms = |n: &str| {
        totals
            .get(n)
            .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e6)
    };
    let run_ms = match (timer0, timer1) {
        (Some((c0, n0)), Some((c1, n1))) if c1 > c0 => (n1 - n0) as f64 / (c1 - c0) as f64 / 1e6,
        _ => f64::NAN,
    };
    let m = &mut layers.metrics;
    m.push(("serve.submit_ms".into(), "ms", mean_ms("serve.submit")));
    m.push(("serve.watch_ms".into(), "ms", mean_ms("serve.watch")));
    m.push(("serve.result_ms".into(), "ms", mean_ms("serve.result")));
    m.push(("serve.status_ms".into(), "ms", mean_ms("serve.status")));
    m.push((
        "serve.notify_gap_ms".into(),
        "ms",
        mean_ms("serve.watch") - run_ms,
    ));
    m.push((
        "trace_overhead.serve-jobs".into(),
        "x",
        wall_traced / wall_untraced,
    ));
    m.push((
        "obs.serve.requests".into(),
        "count",
        obs.get("serve.requests").copied().unwrap_or(0) as f64,
    ));
    layers.notes.push(format!(
        "serve-jobs: {} jobs per pass, daemon mean job run {run_ms:.2} ms",
        seen.results.len()
    ));
    layers
}
