//! Black-box tests of the `helix` binary: the `serve` daemon smoke test (50 mixed
//! requests over the stdio batch protocol, one fault-injected panic among them), the
//! file-IO error paths (missing input, unwritable output — both must name the
//! offending path), the dispatch-table counters of `run --parallel --json` and the host
//! fields of the `fuzz` summary.

use std::process::{Command, Stdio};

use helix_service::{CacheOutcome, Client, Fault, Op, Request, Status};

fn helix_exe() -> &'static str {
    env!("CARGO_BIN_EXE_helix")
}

/// The same DOALL-shaped program family the service tests use; `seed` varies the
/// content hash so the smoke test exercises misses, hits and (tight caps) evictions.
fn doall(seed: i64) -> String {
    format!(
        r#"module cli_smoke
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

#[test]
fn serve_smoke_50_mixed_requests_survive_an_injected_panic() {
    let mut child = Command::new(helix_exe())
        .args([
            "serve",
            "--stdio",
            "--no-calibrate",
            "--service-threads",
            "2",
            "--threads",
            "2",
            "--cache-cap",
            "8",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn helix serve");
    let stdin = child.stdin.take().unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut client = Client::from_halves(stdout, stdin);

    // 50 mixed requests: runs rotating over three programs (so the cache sees misses
    // AND hits), pings and stats sprinkled in, and one fault-injected panicking job.
    const FAULT_ID: u64 = 25;
    let programs = [doall(11), doall(22), doall(33)];
    for id in 1..=50u64 {
        let req = match id % 10 {
            3 => Request::new(Op::Ping, id),
            7 => Request::new(Op::Stats, id),
            _ => {
                let mut req = Request::run(id, &programs[(id % 3) as usize]);
                if id == FAULT_ID {
                    req.fault = Fault::PanicAt(3);
                }
                req
            }
        };
        client.send(&req).unwrap();
    }
    client.send(&Request::new(Op::Shutdown, 51)).unwrap();

    let mut responses = Vec::new();
    while let Some(resp) = client.recv().unwrap() {
        responses.push(resp);
    }
    let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (1..=51).collect::<Vec<u64>>(),
        "every request must be answered exactly once"
    );

    let mut hits = 0;
    for resp in &responses {
        if resp.id == FAULT_ID {
            assert_eq!(resp.status, Some(Status::Panic), "fault job: {resp:?}");
            let error = resp.error.as_deref().unwrap_or("");
            assert!(
                error.contains("injected fault"),
                "panic payload must reach the client: {error}"
            );
        } else {
            assert_eq!(
                resp.status,
                Some(Status::Ok),
                "non-faulty id {} must succeed after the panic: {:?}",
                resp.id,
                resp.error
            );
        }
        if resp.cache == CacheOutcome::Hit {
            hits += 1;
        }
    }
    assert!(hits > 0, "repeated programs must hit the cache");

    let status = child.wait().expect("wait for helix serve");
    assert!(status.success(), "daemon must exit cleanly, got {status}");
}

#[test]
fn missing_input_file_error_names_the_path() {
    let output = Command::new(helix_exe())
        .args(["run", "/no/such/dir/program.hir"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("/no/such/dir/program.hir"),
        "read error must name the path: {stderr}"
    );
}

#[test]
fn unwritable_output_path_error_names_the_path() {
    let dir = std::env::temp_dir().join(format!("helix-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("prog.hir");
    std::fs::write(&program, doall(5)).unwrap();

    // The parent of --out does not exist, so the trace write must fail — with the path.
    let out_path = "/no/such/dir/out.trace.json";
    let output = Command::new(helix_exe())
        .args([
            "trace",
            program.to_str().unwrap(),
            "--threads",
            "2",
            "--out",
            out_path,
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(out_path) && stderr.contains("cannot write"),
        "write error must name the path: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_run_json_reports_its_table_builds() {
    let program = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../corpus/sum_reduction.hir"
    );
    let output = Command::new(helix_exe())
        .args(["run", program, "--parallel", "--threads", "2", "--json"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    let json = String::from_utf8_lossy(&output.stdout);
    let field = |key: &str| -> String {
        let start = json
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("no {key} in {json}"))
            + key.len()
            + 3;
        json[start..]
            .split([',', '}'])
            .next()
            .unwrap()
            .trim_matches('"')
            .to_string()
    };
    // One run builds one table set for the tier kind it ran on.
    assert_eq!(field("table_builds"), "1", "{json}");
    let chunks: u64 = field("jit_chunks").parse().unwrap();
    if field("dispatch_tier") != "jit" {
        assert_eq!(chunks, 0, "{json}");
    }
}

#[test]
fn fuzz_summary_reports_its_host() {
    for (tier, expected) in [("threaded", "threaded"), ("jit", "")] {
        let output = Command::new(helix_exe())
            .args([
                "fuzz",
                "--seeds",
                "2",
                "--threads",
                "1,2",
                "--dispatch-tier",
                tier,
            ])
            .output()
            .unwrap();
        assert!(output.status.success(), "{output:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let summary = stdout
            .lines()
            .find(|l| l.starts_with("fuzzed 2 seeds"))
            .unwrap_or_else(|| panic!("no summary line: {stdout}"));
        let field = |key: &str| -> String {
            let start = summary
                .find(&format!("{key}="))
                .unwrap_or_else(|| panic!("no {key}= in {summary}"))
                + key.len()
                + 1;
            summary[start..]
                .split_whitespace()
                .next()
                .unwrap()
                .to_string()
        };
        let hardware: usize = field("hardware_threads").parse().unwrap();
        assert!(hardware >= 1, "{summary}");
        // The resolved tier: a threaded pin stays threaded; the JIT runs as itself only
        // where it is supported.
        let resolved = field("tier");
        if expected.is_empty() {
            assert!(
                ["jit", "threaded"].contains(&resolved.as_str()),
                "{summary}"
            );
        } else {
            assert_eq!(resolved, expected, "{summary}");
        }
    }
}
