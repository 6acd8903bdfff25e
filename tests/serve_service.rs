//! End-to-end tests of the campaign job service (`crates/serve`)
//! across the real socket boundary: an in-process daemon, the typed
//! client, and the determinism / backpressure guarantees from
//! `ISSUE` acceptance — a restart-interrupted job merges to the
//! bit-identical tally of a direct engine run, and a full queue
//! rejects new work without disturbing running jobs.

use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use cppc::campaign::json::Json;
use cppc::serve::runner::tally_result_json;
use cppc::serve::{serve, Client, JobKind, JobSpec, Priority, ServerConfig};
use cppc_bench::experiments::sleep_experiment;

/// A unique, socket-length-safe scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cppc_serve_it").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One daemon lifetime: spawned thread + connect-retry + shutdown help.
struct Daemon {
    socket: PathBuf,
    handle: thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(dir: &std::path::Path, queue_cap: usize, max_threads: usize) -> Self {
        let socket = dir.join("d.sock");
        let mut cfg = ServerConfig::new(dir.join("data"), &socket);
        cfg.queue_cap = queue_cap;
        cfg.max_threads = max_threads;
        cfg.checkpoint_every_shards = 1;
        let handle = thread::spawn(move || serve(cfg));
        Daemon { socket, handle }
    }

    fn client(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect_unix(&self.socket) {
                Ok(c) => return c,
                Err(e) => {
                    assert!(Instant::now() < deadline, "daemon never came up: {e}");
                    thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    fn stop(self) {
        let _ = self.client().shutdown();
        self.handle.join().unwrap().unwrap();
    }
}

fn sleep_spec(millis: u64, trials: u64, seed: u64, shard_size: u64) -> JobSpec {
    JobSpec {
        shard_size,
        ..JobSpec::new(JobKind::Sleep { millis }, trials, seed)
    }
}

/// Polls `status` until the job leaves `queued`.
fn wait_running(client: &mut Client, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let state = client
            .status(id)
            .unwrap()
            .get("state")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        if state != "queued" {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never started");
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn submitted_job_matches_direct_engine_run() {
    let dir = scratch("submit_equality");
    let daemon = Daemon::start(&dir, 8, 2);
    let mut client = daemon.client();

    let spec = sleep_spec(0, 96, 0xFEED, 8);
    let id = client
        .submit("alice", Priority::Normal, spec.clone())
        .unwrap();
    let end = client.watch(id, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));

    let direct = cppc::campaign::run::<cppc::fault::campaign::OutcomeTally, _>(
        &spec.campaign_config(1),
        sleep_experiment(0),
    )
    .result;
    assert_eq!(end.get("result"), Some(&tally_result_json(&direct)));
    // `result` agrees with the watch end event.
    assert_eq!(client.result(id).unwrap(), tally_result_json(&direct));
    daemon.stop();
}

#[test]
fn full_queue_rejects_without_disturbing_running_jobs() {
    let dir = scratch("backpressure");
    // One worker thread and a queue of exactly one.
    let daemon = Daemon::start(&dir, 1, 1);
    let mut client = daemon.client();

    // Occupies the governor for its whole life (~50ms/trial).
    let running = client
        .submit("alice", Priority::Normal, sleep_spec(50, 40, 1, 4))
        .unwrap();
    wait_running(&mut client, running);
    // Fills the queue.
    let queued = client
        .submit("bob", Priority::Normal, sleep_spec(0, 8, 2, 4))
        .unwrap();
    // The N+1th submission bounces with a retry hint.
    let err = client
        .submit("carol", Priority::Normal, sleep_spec(0, 8, 3, 4))
        .unwrap_err();
    match err {
        cppc::serve::ClientError::Remote {
            message,
            retry_after_ms,
        } => {
            assert!(message.contains("queue full"), "{message}");
            assert!(retry_after_ms.is_some(), "rejection must carry a hint");
        }
        other => panic!("expected a remote queue-full rejection, got {other}"),
    }
    // The running job was not affected: cancel it cleanly, and the
    // queued one still completes.
    client.cancel(running).unwrap();
    let end = client.watch(queued, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    let cancelled_end = client.watch(running, |_| {}).unwrap();
    assert_eq!(
        cancelled_end.get("state").and_then(Json::as_str),
        Some("cancelled")
    );
    daemon.stop();
}

#[test]
fn shutdown_suspends_and_restart_resumes_bit_identically() {
    let dir = scratch("suspend_resume");
    let spec = sleep_spec(10, 120, 0xD00D, 4);

    // First daemon: start the job, let it make some progress, shut
    // down mid-run (graceful shutdown checkpoints and suspends).
    let first = Daemon::start(&dir, 8, 1);
    let mut client = first.client();
    let id = client
        .submit("alice", Priority::High, spec.clone())
        .unwrap();
    wait_running(&mut client, id);
    thread::sleep(Duration::from_millis(200));
    let before = client.status(id).unwrap();
    assert_eq!(before.get("state").and_then(Json::as_str), Some("running"));
    first.stop();

    // Second daemon on the same data dir: the suspended job requeues
    // and resumes from its checkpoint.
    let second = Daemon::start(&dir, 8, 1);
    let mut client = second.client();
    let end = client.watch(id, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));

    let direct = cppc::campaign::run::<cppc::fault::campaign::OutcomeTally, _>(
        &spec.campaign_config(1),
        sleep_experiment(10),
    )
    .result;
    assert_eq!(end.get("result"), Some(&tally_result_json(&direct)));
    second.stop();
}

#[test]
fn high_priority_overtakes_normal_backlog() {
    let dir = scratch("priority");
    let daemon = Daemon::start(&dir, 8, 1);
    let mut client = daemon.client();

    // A running job pins the single worker while we shape the queue.
    let running = client
        .submit("alice", Priority::Normal, sleep_spec(50, 40, 1, 4))
        .unwrap();
    wait_running(&mut client, running);
    let normal = client
        .submit("alice", Priority::Normal, sleep_spec(0, 8, 2, 4))
        .unwrap();
    let high = client
        .submit("bob", Priority::High, sleep_spec(0, 8, 3, 4))
        .unwrap();
    client.cancel(running).unwrap();

    // The high-lane job finishes; at the moment it was dispatched the
    // normal job must still have been waiting behind it.
    let end = client.watch(high, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    let end = client.watch(normal, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));

    // Journal survives: a fresh list shows all three jobs terminal.
    let rows = client.list(None).unwrap();
    assert_eq!(rows.len(), 3);
    for row in &rows {
        let state = row.get("state").and_then(Json::as_str).unwrap();
        assert!(
            state == "done" || state == "cancelled",
            "unexpected state {state}"
        );
    }
    daemon.stop();
}

/// Sends one raw request line and returns the daemon's reply line
/// (empty when the daemon closed the connection without one).
fn raw_exchange(socket: &std::path::Path, line: &[u8]) -> String {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::os::unix::net::UnixStream::connect(socket).unwrap();
    // The daemon may reply and hang up before it has read a refused
    // line's tail, so a failed write is not the test's verdict.
    let _ = stream
        .write_all(line)
        .and_then(|()| stream.write_all(b"\n"));
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    reply
}

#[test]
fn hostile_request_lines_get_error_replies_and_the_daemon_survives() {
    let dir = scratch("hostile_lines");
    let daemon = Daemon::start(&dir, 8, 2);
    let _ = daemon.client(); // wait for the socket

    // ~200 KB of nesting: a parse error reply, not a stack overflow.
    let depth = 100_000;
    let nested = format!(r#"{{"op":{}{}}}"#, "[".repeat(depth), "]".repeat(depth));
    let reply = Json::parse(&raw_exchange(&daemon.socket, nested.as_bytes())).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("nesting"), "{error}");

    // A line at the cap is parsed; one byte more is refused unparsed.
    let at_cap = vec![b'a'; cppc::serve::server::MAX_REQUEST_LINE];
    let reply = Json::parse(&raw_exchange(&daemon.socket, &at_cap)).unwrap();
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("bad JSON"), "{error}");
    let long = vec![b'a'; cppc::serve::server::MAX_REQUEST_LINE + 1];
    let reply = Json::parse(&raw_exchange(&daemon.socket, &long)).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("longer than"), "{error}");

    // The next client is served as usual.
    let mut client = daemon.client();
    let id = client
        .submit("alice", Priority::Normal, sleep_spec(0, 16, 5, 4))
        .unwrap();
    let end = client.watch(id, |_| {}).unwrap();
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    daemon.stop();
}
