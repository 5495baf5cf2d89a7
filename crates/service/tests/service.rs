//! End-to-end tests of the `helix serve` daemon: differential cold/warm caching,
//! eviction, structured panic recovery, deadlines, and the framed batch transport.

use std::os::unix::net::UnixStream;

use helix_service::{
    CacheOutcome, Client, Fault, Op, Request, Response, ServeConfig, Server, Status,
};

/// A program with a DOALL-style hot loop (parallelizable) followed by a sequential
/// checksum reduction. `seed` varies the content hash without changing the shape.
fn doall(seed: i64) -> String {
    format!(
        r#"module service_test
global @g0 "arr" [64 words]
global @g1 "acc" [1 words]
func main(0 params, 8 vars) {{
bb0: (entry)
  %v0 = const 0
  br bb1
bb1:
  %v1 = cmp.lt %v0, 64
  condbr %v1, bb2, bb3
bb2:
  %v2 = add @g0, %v0
  %v3 = mul %v0, {seed}
  %v3 = xor %v3, 40503
  %v3 = mul %v3, 31
  %v3 = xor %v3, 99991
  store [%v2 + 0], %v3
  %v0 = add %v0, 1
  br bb1
bb3:
  %v0 = const 0
  br bb4
bb4:
  %v1 = cmp.lt %v0, 64
  condbr %v1, bb5, bb6
bb5:
  %v2 = add @g0, %v0
  %v4 = load [%v2 + 0]
  %v5 = load [@g1 + 0]
  %v5 = add %v5, %v4
  store [@g1 + 0], %v5
  %v0 = add %v0, 1
  br bb4
bb6:
  %v5 = load [@g1 + 0]
  ret %v5
}}
"#
    )
}

/// Straight-line program with no loop: exercises the sequential fallback.
const SEQ_ONLY: &str = "module seq_only\n\
func main(0 params, 2 vars) {\n\
bb0: (entry)\n\
  %v0 = const 21\n\
  %v1 = mul %v0, 2\n\
  ret %v1\n\
}\n";

fn test_server(cache_cap: usize) -> Server {
    Server::new(ServeConfig {
        cache_cap,
        service_threads: 2,
        default_threads: 2,
        max_iterations: 1_000_000,
        fuel: 10_000_000,
        calibrate: false,
    })
}

#[test]
fn cold_then_warm_is_bitwise_identical_and_hits_cache() {
    let server = test_server(4);
    let req = Request::run(1, &doall(2654435761));

    let cold = server.handle(&req);
    assert_eq!(cold.status, Some(Status::Ok), "cold: {:?}", cold.error);
    assert_eq!(cold.cache, CacheOutcome::Miss);
    assert_eq!(cold.plan.as_deref(), Some("parallel"));
    assert!(
        cold.prep_ns.unwrap() > 0,
        "cold run must report prepare time"
    );
    assert!(cold.result.is_some() && cold.memory_hash.is_some());

    let warm = server.handle(&Request::run(2, &doall(2654435761)));
    assert_eq!(warm.status, Some(Status::Ok));
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(warm.prep_ns, Some(0), "a hit skips prepare entirely");
    // Bitwise-identical: same formatted result AND same memory digest.
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.memory_hash, cold.memory_hash);

    let stats = server.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.entries, 1);
}

#[test]
fn canonically_equal_variant_shares_the_cached_image() {
    let server = test_server(4);
    let base = doall(7777);
    let variant = format!("# a leading comment changes the text, not the program\n{base}");
    assert_ne!(
        helix_service::raw_hash(&base, "main"),
        helix_service::raw_hash(&variant, "main")
    );

    let cold = server.handle(&Request::run(1, &base));
    let warm = server.handle(&Request::run(2, &variant));
    assert_eq!(cold.status, Some(Status::Ok), "cold: {:?}", cold.error);
    assert_eq!(
        warm.cache,
        CacheOutcome::Hit,
        "comments don't change the canonical print, so this must hit"
    );
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.memory_hash, cold.memory_hash);
    assert_eq!(server.cache_stats().entries, 1);
}

#[test]
fn eviction_under_two_entry_cap_relowers_correctly() {
    let server = test_server(2);
    let first = server.handle(&Request::run(1, &doall(1001)));
    assert_eq!(first.status, Some(Status::Ok), "first: {:?}", first.error);
    let builds_per_image = server.cache_stats().table_builds;

    // Two more distinct programs evict the first (cap is 2, LRU).
    assert_eq!(
        server.handle(&Request::run(2, &doall(1002))).cache,
        CacheOutcome::Miss
    );
    assert_eq!(
        server.handle(&Request::run(3, &doall(1003))).cache,
        CacheOutcome::Miss
    );
    let stats = server.cache_stats();
    assert!(stats.evictions >= 1, "cap 2 with 3 programs must evict");
    assert_eq!(stats.entries, 2);

    // The evicted program re-prepares (miss) and still computes the same answer.
    let again = server.handle(&Request::run(4, &doall(1001)));
    assert_eq!(
        again.cache,
        CacheOutcome::Miss,
        "evicted entry must re-lower"
    );
    assert_eq!(again.status, Some(Status::Ok));
    // Four images were built; the evicted ones' tables still count.
    assert_eq!(server.cache_stats().table_builds, 4 * builds_per_image);
    assert_eq!(again.result, first.result);
    assert_eq!(again.memory_hash, first.memory_hash);
}

/// The 25 named programs: the `corpus/*.hir` files and the SPEC stand-ins as text.
fn named_programs() -> Vec<(String, String)> {
    let mut programs: Vec<(String, String)> = helix_workloads::corpus_paths()
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("corpus program is readable");
            (path.display().to_string(), source)
        })
        .collect();
    for bench in helix_workloads::all_benchmarks() {
        let (module, _) = bench.build();
        programs.push((
            bench.name.to_string(),
            helix_ir::printer::format_module(&module),
        ));
    }
    programs
}

#[test]
fn memory_hash_does_not_depend_on_thread_count() {
    // The 1-worker run captures plain memory and the 2-worker run a snapshot of striped
    // memory, each with its own backing capacity; the digest must see neither.
    let server = test_server(64);
    for (name, source) in named_programs() {
        let run = |id, threads| {
            let mut req = Request::run(id, &source);
            req.threads = Some(threads);
            let resp = server.handle(&req);
            assert_eq!(resp.status, Some(Status::Ok), "{name}: {:?}", resp.error);
            resp
        };
        let one = run(1, 1);
        let two = run(2, 2);
        assert_eq!(one.result, two.result, "{name}");
        assert!(one.memory_hash.is_some(), "{name}");
        assert_eq!(
            one.memory_hash, two.memory_hash,
            "{name}: memory_hash differs between threads=1 and threads=2"
        );
    }
}

/// The value of `key` in an `op=stats` response.
fn stat(resp: &Response, key: &str) -> u64 {
    resp.extra
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("stats response has no {key}"))
        .1
        .parse()
        .expect("numeric stat")
}

#[test]
fn cache_hits_build_no_dispatch_tables() {
    let server = test_server(4);
    let source = doall(424242);
    let run = |id| {
        let resp = server.handle(&Request::run(id, &source));
        assert_eq!(resp.status, Some(Status::Ok), "{:?}", resp.error);
        resp
    };
    // Warm-up: the miss prepares the image, and its first run builds the tables.
    let cold = run(1);
    assert_eq!(cold.cache, CacheOutcome::Miss);
    let warm = server.handle(&Request::new(Op::Stats, 2));
    let built = stat(&warm, "table_builds");
    assert!(built >= 1, "the first run builds its tables");
    for id in 0..50 {
        let hit = run(100 + id);
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(hit.memory_hash, cold.memory_hash);
    }
    let after = server.handle(&Request::new(Op::Stats, 3));
    assert_eq!(
        stat(&after, "table_builds"),
        built,
        "50 hits must reuse the image's tables"
    );
    assert_eq!(stat(&after, "jit_chunks"), stat(&warm, "jit_chunks"));
    assert_eq!(server.cache_stats().table_builds, built);
}

#[test]
fn sequential_fallback_runs_and_caches() {
    let server = test_server(4);
    let cold = server.handle(&Request::run(1, SEQ_ONLY));
    assert_eq!(cold.status, Some(Status::Ok), "cold: {:?}", cold.error);
    assert_eq!(cold.plan.as_deref(), Some("sequential"));
    assert_eq!(cold.result.as_deref(), Some("42"));
    let warm = server.handle(&Request::run(2, SEQ_ONLY));
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(warm.memory_hash, cold.memory_hash);
}

#[test]
fn fault_injected_panic_is_structured_and_daemon_keeps_serving() {
    let server = test_server(4);
    let mut faulty = Request::run(1, &doall(31337));
    faulty.fault = Fault::PanicAt(7);
    faulty.threads = Some(2);

    let resp = server.handle(&faulty);
    assert_eq!(resp.status, Some(Status::Panic), "got: {resp:?}");
    let error = resp.error.unwrap();
    assert!(
        error.contains("injected fault"),
        "panic payload must reach the client: {error}"
    );

    // Same daemon, same cached image, no fault: the pool recovered.
    let clean = server.handle(&Request::run(2, &doall(31337)));
    assert_eq!(
        clean.status,
        Some(Status::Ok),
        "after panic: {:?}",
        clean.error
    );
    assert_eq!(clean.cache, CacheOutcome::Hit);
    assert_eq!(server.job_stats().panicked, 1);
}

#[test]
fn batch_transport_answers_every_id_with_fifo_deadlines_and_shutdown() {
    let server = test_server(8);
    let (daemon_side, client_side) = UnixStream::pair().unwrap();

    std::thread::scope(|scope| {
        // The thread must *own* the daemon-side socket: every daemon FD has to drop
        // when serving ends, or the client's recv loop below never sees EOF.
        scope.spawn(|| {
            let daemon_side = daemon_side;
            let input = daemon_side.try_clone().unwrap();
            server.serve_connection(input, &daemon_side);
        });

        let reader = client_side.try_clone().unwrap();
        let mut client = Client::from_halves(reader, &client_side);

        // A mix: runs (warm + cold), a ping, an expired deadline, a fault, stats.
        let program = doall(99);
        client.send(&Request::run(1, &program)).unwrap();
        client.send(&Request::run(2, &program)).unwrap();
        client.send(&Request::new(Op::Ping, 3)).unwrap();
        let mut expired = Request::run(4, &program);
        expired.deadline_ms = Some(0);
        client.send(&expired).unwrap();
        let mut faulty = Request::run(5, &program);
        faulty.fault = Fault::PanicAt(3);
        client.send(&faulty).unwrap();
        client.send(&Request::new(Op::Stats, 6)).unwrap();
        client.send(&Request::new(Op::Shutdown, 7)).unwrap();

        let mut responses: Vec<Response> = Vec::new();
        while let Some(resp) = client.recv().unwrap() {
            responses.push(resp);
        }
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            vec![1, 2, 3, 4, 5, 6, 7],
            "every request must be answered"
        );

        let by_id = |id: u64| responses.iter().find(|r| r.id == id).unwrap();
        assert_eq!(
            by_id(1).status,
            Some(Status::Ok),
            "id 1: {:?}",
            by_id(1).error
        );
        assert_eq!(by_id(2).status, Some(Status::Ok));
        assert_eq!(by_id(2).result, by_id(1).result);
        assert_eq!(by_id(3).status, Some(Status::Ok));
        assert_eq!(by_id(4).status, Some(Status::Deadline));
        assert_eq!(by_id(5).status, Some(Status::Panic));
        assert_eq!(by_id(6).status, Some(Status::Ok));
        // Stats report the dispatch engine jobs resolve to, plus the calibration
        // summary (per-tier ALU dispatch costs).
        let stats = by_id(6);
        let extra = |k: &str| {
            stats
                .extra
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        let tier = extra("dispatch_tier").expect("stats report a dispatch tier");
        assert!(
            ["threaded", "jit"].contains(&tier),
            "a resolved tier: {tier}"
        );
        for key in [
            "jit_supported",
            "calibration_alu_threaded_ns",
            "calibration_alu_jit_ns",
            "calibration_ns_per_cycle",
        ] {
            assert!(extra(key).is_some(), "stats missing {key}");
        }
        assert_eq!(by_id(7).status, Some(Status::Ok));
    });

    // At least one of the two identical runs hit the cache.
    assert!(server.cache_stats().hits >= 1);
}

#[test]
fn unix_socket_transport_serves_and_shuts_down() {
    let server = test_server(4);
    let dir = std::env::temp_dir().join(format!("helix-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("helix.sock");
    let _ = std::fs::remove_file(&socket);

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_unix(&socket).unwrap());

        // Wait for the socket to appear.
        let mut client = loop {
            match Client::connect_unix(&socket) {
                Ok(c) => break c,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        let resp = client.request(&Request::run(1, &doall(555))).unwrap();
        assert_eq!(
            resp.status,
            Some(Status::Ok),
            "socket run: {:?}",
            resp.error
        );
        let resp = client.request(&Request::run(2, &doall(555))).unwrap();
        assert_eq!(resp.cache, CacheOutcome::Hit);
        let resp = client.request(&Request::new(Op::Shutdown, 3)).unwrap();
        assert_eq!(resp.status, Some(Status::Ok));
        handle.join().unwrap();
    });
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir(&dir);
}
