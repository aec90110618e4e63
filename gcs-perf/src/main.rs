//! `gcs-perf`: the repository's benchmark.
//!
//! ```text
//! gcs-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs trials of the workload — each a fresh
//! cluster in a fresh child process — until the next one would overrun
//! `--seconds`, verifies every trial with the repository's checkers, and
//! prints the median of each end-to-end metric. With `--trace 1` it runs
//! one untraced and one traced trial and prints the per-layer ledger.
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `gcs-perf/README.md` for the workloads and metrics.

mod deploy;
mod layers;
mod loadgen;
mod sys;
mod trial;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{exit, Command, Stdio};
use std::time::{Duration, Instant};

/// The end-to-end metrics a `--trace 0` result reports (the gated set
/// of `BENCHMARK.json`). Trials measure a few more — the client's p99
/// latency, and `unavailable_ms` on `ring_partition` — which go to
/// standard error (see README.md).
const END_TO_END: [&str; 6] =
    ["setup_s", "throughput_ops_s", "latency_p50_us", "cpu_us_per_op", "rss_peak_mb", "verify_s"];

/// Longest a child trial may run before it is killed and the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one trial in this process (`plain` or `traced`).
    child: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: gcs-perf --workload <ring_closed|ring_paced|shard_closed|ring_partition> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, child: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value == "1",
            "--child" => a.child = Some(value),
            _ => usage(),
        }
    }
    if trial::spec(&a.workload).is_none() {
        usage();
    }
    a
}

/// Unit of each metric, by the ending of its name.
fn unit(name: &str) -> &'static str {
    const UNITS: [(&str, &str); 15] = [
        ("_ops_s", "1/s"),
        ("_s", "s"),
        ("_ms", "ms"),
        ("us_per_op", "us"),
        ("us_p50", "us"),
        ("_us", "us"),
        ("ns_per_op", "ns"),
        ("ns_per_frame", "ns"),
        ("ns_p50", "ns"),
        ("_ns", "ns"),
        ("_mb", "MB"),
        ("kb_per_op", "kB"),
        ("bytes_per_op", "B"),
        ("_ratio", "ratio"),
        ("_over_min", "ratio"),
    ];
    UNITS.iter().find(|(suffix, _)| name.ends_with(suffix)).map_or("count", |(_, u)| u)
}

/// What one child trial printed.
#[derive(Default)]
struct ChildOut {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Runs one trial in a child process and parses its report lines.
fn run_child(a: &Args, kind: &str, seed: u64) -> ChildOut {
    let exe = std::env::current_exe().unwrap_or_else(|_| "gcs-perf".into());
    let mut out = ChildOut::default();
    let child = Command::new(exe)
        .args(["--workload", &a.workload, "--seed", &seed.to_string(), "--child", kind])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("cannot start a trial: {e}"));
            return out;
        }
    };
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(st)) => break Some(st),
            Ok(None) if start.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(_) => break None,
        }
    };
    let text = reader.join().unwrap_or_default();
    for line in text.lines() {
        let mut f = line.splitn(3, ' ');
        match (f.next(), f.next(), f.next()) {
            (Some("metric"), Some(name), Some(v)) => {
                if let Ok(v) = v.parse() {
                    out.metrics.insert(name.to_string(), v);
                }
            }
            (Some("attempted"), Some(v), None) => out.attempted = v.parse().unwrap_or(0),
            (Some("failed"), Some(v), None) => out.failed = v.parse().unwrap_or(0),
            (Some("fail"), _, _) => out.failures.push(line[5..].to_string()),
            _ => {}
        }
    }
    match status {
        Some(st) if st.success() => {}
        Some(st) if out.failures.is_empty() => out.failures.push(format!("trial exited with {st}")),
        None => out.failures.push("trial timed out and was killed".into()),
        _ => {}
    }
    out
}

/// Where a traced trial writes its spans: under the build directory.
fn spans_path(a: &Args, seed: u64) -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(base).join("gcs-perf").join(format!("spans-{}-{seed}.tsv", a.workload))
}

/// Child mode: one trial, reported as `metric`/`attempted`/`failed`
/// lines (or `fail` lines and exit code 1).
fn child_main(a: &Args, kind: &str, proc_start: Instant) -> ! {
    let spec = trial::spec(&a.workload).expect("checked in parse_args");
    let traced = kind == "traced";
    let spans = traced.then(|| spans_path(a, a.seed));
    let fail = |e: String| -> ! {
        println!("fail {e}");
        exit(1)
    };
    let (out, captured) =
        trial::run(&spec, a.seed, traced, proc_start, spans.as_deref()).unwrap_or_else(|e| fail(e));
    for (name, value) in &out.metrics {
        println!("metric {name} {value}");
    }
    println!("attempted {}", out.attempted);
    println!("failed {}", out.failed);
    if !out.failures.is_empty() {
        fail(out.failures.join("; "));
    }
    if let Some(c) = captured {
        let budget = Duration::from_millis(300);
        let (enc, dec, bytes) = layers::codec(&c.frames, c.ops, budget);
        println!("metric codec.encode_ns_per_frame {enc}");
        println!("metric codec.decode_ns_per_frame {dec}");
        println!("metric codec.bytes_per_op {bytes}");
        let vs = layers::vsimpl(a.seed, 2048, 20_000).unwrap_or_else(|e| fail(e));
        println!("metric vsimpl.ns_per_op {vs}");
        let rt = layers::runtime(a.seed, 2048, 20_000).unwrap_or_else(|e| fail(e));
        println!("metric runtime.ns_per_op {rt}");
        if !spec.partition {
            let (cut, heal) = layers::membership().unwrap_or_else(|e| fail(e));
            println!("metric membership.cut_to_view_ms {cut}");
            println!("metric membership.heal_to_view_ms {heal}");
        }
    }
    exit(0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Prints the result line. A run that failed a check reports no
/// metrics: its measurements go to standard error for diagnosis only.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &BTreeMap<String, f64>) {
    if !correct {
        for (k, v) in metrics {
            eprintln!("gcs-perf: measured (not a result) {k} = {v} {}", unit(k));
        }
    }
    let shown = if correct { metrics.clone() } else { BTreeMap::new() };
    let body: Vec<String> = shown
        .iter()
        .map(|(k, v)| {
            format!("\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}", json_number(*v), unit(k))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The seed of trial `i` of a run seeded `seed`.
fn trial_seed(seed: u64, i: u64) -> u64 {
    sys::mix(seed.wrapping_mul(0x1_0000).wrapping_add(i))
}

fn main() {
    let proc_start = Instant::now();
    let a = parse_args();
    if let Some(kind) = a.child.clone() {
        child_main(&a, &kind, proc_start);
    }
    let started = Instant::now();
    let mut trials: Vec<ChildOut> = Vec::new();
    if a.trace {
        // One untraced trial for reference, then the traced one.
        let plain = run_child(&a, "plain", trial_seed(a.seed, 0));
        let traced = run_child(&a, "traced", trial_seed(a.seed, 0));
        let ratio = traced.metrics.get("throughput_ops_s").copied().unwrap_or(0.0)
            / plain.metrics.get("throughput_ops_s").copied().unwrap_or(f64::NAN);
        let mut ledger: BTreeMap<String, f64> = traced
            .metrics
            .iter()
            .filter(|(k, _)| k.contains('.'))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        ledger.insert("trace.throughput_ratio".into(), ratio);
        // The client's tail, from the untraced trial: reported, not gated
        // (see README.md).
        if let Some(p99) = plain.metrics.get("latency_p99_us") {
            ledger.insert("client.latency_p99_us".into(), *p99);
        }
        let failures: Vec<&String> = plain.failures.iter().chain(&traced.failures).collect();
        for f in &failures {
            eprintln!("gcs-perf: FAIL: {f}");
        }
        let correct = failures.is_empty();
        print_result(correct, traced.attempted, traced.failed, &ledger);
        exit(if correct { 0 } else { 1 });
    }
    loop {
        let t = run_child(&a, "plain", trial_seed(a.seed, trials.len() as u64));
        let failed = !t.failures.is_empty();
        trials.push(t);
        let elapsed = started.elapsed().as_secs_f64();
        let per_trial = elapsed / trials.len() as f64;
        if failed || elapsed + per_trial > a.seconds {
            break;
        }
    }
    let failures: Vec<&String> = trials.iter().flat_map(|t| &t.failures).collect();
    for f in &failures {
        eprintln!("gcs-perf: FAIL: {f}");
    }
    // Each metric is the median over the run's trials: robust to the
    // odd trial that a host hiccup slows down.
    let mut names: Vec<&String> = trials.iter().flat_map(|t| t.metrics.keys()).collect();
    names.sort();
    names.dedup();
    let result: BTreeMap<String, f64> = names
        .into_iter()
        .map(|n| {
            let xs: Vec<f64> = trials.iter().filter_map(|t| t.metrics.get(n).copied()).collect();
            (n.clone(), sys::median(&xs))
        })
        .collect();
    let attempted = trials.iter().map(|t| t.attempted).sum();
    let failed = trials.iter().map(|t| t.failed).sum();
    eprintln!(
        "gcs-perf: {}: {} trials in {:.1} s; latency samples {} (attempted - failed)",
        a.workload,
        trials.len(),
        started.elapsed().as_secs_f64(),
        attempted - failed
    );
    let correct = failures.is_empty();
    let (gated, other): (BTreeMap<_, _>, BTreeMap<_, _>) =
        result.into_iter().partition(|(k, _)| END_TO_END.contains(&k.as_str()));
    for (k, v) in &other {
        eprintln!("gcs-perf: also measured (median over trials): {k} = {v} {}", unit(k));
    }
    print_result(correct, attempted, failed, &gated);
    exit(if correct { 0 } else { 1 })
}
