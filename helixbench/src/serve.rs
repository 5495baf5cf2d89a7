//! The `helix serve` daemon as the benchmark drives it: `Server::serve_unix` on a
//! scoped thread of this process, one `helix_service::Client` connection, and a closed
//! loop that sends the next request only after the last response arrived.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use helix_service::{CacheOutcome, Client, Op, Request, ServeConfig, Server, Status};

use crate::check::Reference;
use crate::programs::{generated, Program, ServeOp};
use crate::trace::Tracer;
use crate::OpResult;

pub type UnixClient = Client<std::os::unix::net::UnixStream, std::os::unix::net::UnixStream>;

/// The daemon shape of both serve workloads: one service thread, 2-worker parallel jobs.
fn config() -> ServeConfig {
    ServeConfig {
        service_threads: 1,
        default_threads: 2,
        ..ServeConfig::default()
    }
}

/// A socket path relative to the working directory, short enough for `sun_path`.
fn socket_path() -> PathBuf {
    PathBuf::from(format!(".helixbench-{}.sock", std::process::id()))
}

/// Starts a daemon, connects, runs `f`, then shuts the daemon down and waits for it.
pub fn with_daemon<R>(f: impl FnOnce(&mut UnixClient) -> R) -> Result<R, String> {
    let path = socket_path();
    let _ = std::fs::remove_file(&path);
    let server = Server::new(config());
    let out = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve_unix(&path));
        let client = connect(&path, &daemon);
        let result = client.map(|mut client| {
            let out = catch_unwind(AssertUnwindSafe(|| f(&mut client)));
            let _ = client.request(&Request::new(Op::Shutdown, u64::MAX));
            out
        });
        let served = daemon.join();
        match (result, served) {
            (Ok(Ok(out)), Ok(Ok(()))) => Ok(out),
            (Ok(Err(panic)), _) => resume_unwind(panic),
            (Err(e), _) => Err(e),
            (_, Ok(Err(e))) => Err(format!("daemon failed: {e}")),
            (_, Err(_)) => Err("daemon thread panicked".to_string()),
        }
    });
    let _ = std::fs::remove_file(&path);
    out
}

fn connect(
    path: &Path,
    daemon: &std::thread::ScopedJoinHandle<'_, std::io::Result<()>>,
) -> Result<UnixClient, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect_unix(path) {
            Ok(client) => return Ok(client),
            Err(e) if daemon.is_finished() || Instant::now() > deadline => {
                return Err(format!("cannot connect to the daemon: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// The benchmark-side view of the named programs: references and canonical keys.
pub struct Expect<'a> {
    pub named: &'a [Program],
    pub refs: &'a [Reference],
    pub keys: Vec<u64>,
    /// First `memory_hash` seen per canonical program.
    pub memory: HashMap<u64, u64>,
}

impl<'a> Expect<'a> {
    pub fn new(named: &'a [Program], refs: &'a [Reference]) -> Expect<'a> {
        let keys = named
            .iter()
            .map(|p| helix_core::content_hash(&p.module, "main"))
            .collect();
        Expect {
            named,
            refs,
            keys,
            memory: HashMap::new(),
        }
    }
}

/// What one request cost, as the client and the daemon saw it.
pub struct ServeSample {
    pub class: &'static str,
    pub latency_us: f64,
    pub prep_us: f64,
    pub exec_us: f64,
}

/// Sends one request and checks the response.
pub fn serve_op(
    client: &mut UnixClient,
    op: &ServeOp,
    id: u64,
    expect: &mut Expect<'_>,
    tracer: &mut Tracer,
    samples: &mut Vec<ServeSample>,
) -> OpResult {
    // The benchmark's own work for a miss (generation, reference run, key) is excluded
    // from the phase's time.
    let prep_start = Instant::now();
    let fresh;
    let (name, source, reference, key) = match op {
        ServeOp::Hit(i) => (
            expect.named[*i].name.clone(),
            expect.named[*i].source.as_str(),
            expect.refs[*i].clone(),
            expect.keys[*i],
        ),
        ServeOp::Variant(i, text) => (
            expect.named[*i].name.clone(),
            text.as_str(),
            expect.refs[*i].clone(),
            expect.keys[*i],
        ),
        ServeOp::Miss(seed) => {
            let built = generated(*seed).and_then(|p| {
                let reference = Reference::compute(&p.module, p.entry)?;
                Ok((helix_core::content_hash(&p.module, "main"), reference, p))
            });
            match built {
                Ok((key, reference, program)) => {
                    fresh = program;
                    (fresh.name.clone(), fresh.source.as_str(), reference, key)
                }
                Err(e) => {
                    return OpResult {
                        program: *seed,
                        name: format!("gen/{seed}"),
                        ns: 0.0,
                        check: Err(e),
                        excluded: prep_start.elapsed(),
                    }
                }
            }
        }
    };
    let excluded = prep_start.elapsed();
    let request = Request::run(id, source);
    let span = tracer.open("service.request", id, None);
    let start = Instant::now();
    let response = client.request(&request);
    let ns = start.elapsed().as_nanos() as f64;
    tracer.close(span);
    let check = response
        .map_err(|e| format!("transport: {e}"))
        .and_then(|r| {
            let prep_us = r.prep_ns.unwrap_or(0) as f64 / 1e3;
            let exec_us = r.exec_ns.unwrap_or(0) as f64 / 1e3;
            tracer.note(
                span,
                format!(
                    "class={} cache={:?} prep_ns={} exec_ns={}",
                    op.class(),
                    r.cache,
                    r.prep_ns.unwrap_or(0),
                    r.exec_ns.unwrap_or(0)
                ),
            );
            samples.push(ServeSample {
                class: op.class(),
                latency_us: ns / 1e3,
                prep_us,
                exec_us,
            });
            check_response(&r, &reference, key, &mut expect.memory)
        });
    OpResult {
        program: key,
        name,
        ns,
        check,
        excluded,
    }
}

fn check_response(
    r: &helix_service::Response,
    reference: &Reference,
    key: u64,
    memory: &mut HashMap<u64, u64>,
) -> Result<(), String> {
    if r.status != Some(Status::Ok) {
        return Err(format!(
            "status {:?}: {}",
            r.status,
            r.error.as_deref().unwrap_or("")
        ));
    }
    let want = reference.formatted();
    if r.result.as_deref() != Some(want.as_str()) {
        return Err(format!("result {:?}, reference {want}", r.result));
    }
    let hash = r.memory_hash.ok_or("response carries no memory_hash")?;
    let first = *memory.entry(key).or_insert(hash);
    if first != hash {
        return Err(format!(
            "memory_hash {hash:016x} differs from {first:016x} of an earlier response"
        ));
    }
    if r.cache == CacheOutcome::NotApplicable {
        return Err("run response without a cache outcome".to_string());
    }
    Ok(())
}

/// The daemon's `op=stats` counters.
pub fn stats(client: &mut UnixClient) -> Result<HashMap<String, f64>, String> {
    let r = client
        .request(&Request::new(Op::Stats, u64::MAX - 1))
        .map_err(|e| format!("stats: {e}"))?;
    Ok(r.extra
        .iter()
        .filter_map(|(k, v)| v.parse::<f64>().ok().map(|v| (k.clone(), v)))
        .collect())
}
