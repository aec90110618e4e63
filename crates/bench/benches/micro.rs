//! Component micro-benchmarks: scheduler step rate of the abstract
//! composed system, simulated-network event throughput, token-ring
//! end-to-end message throughput, invariant-suite evaluation cost, and
//! trace-checker throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcs_bench::{abstract_system, run_abstract, run_stack};
use gcs_core::adversary::SystemAdversary;
use gcs_core::derived::DerivedState;
use gcs_core::invariants::all_invariants;
use gcs_core::properties::ToObs;
use gcs_core::system::SysState;
use gcs_core::to_trace::check_to_trace;
use gcs_ioa::Runner;
use gcs_model::{ProcId, Value};
use gcs_vsimpl::{Stack, StackConfig};

fn bench_abstract_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("abstract_scheduler_steps");
    for n in [3u32, 5] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| run_abstract(n, 500, 7))
        });
    }
    g.finish();
}

fn bench_stack_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("token_ring_stack");
    g.sample_size(10);
    for n in [3u32, 5, 9] {
        g.bench_with_input(BenchmarkId::new("deliver_30_msgs", n), &n, |b, &n| {
            b.iter(|| run_stack(n, 30, 11))
        });
    }
    g.finish();
}

/// A mid-execution state of the composed system, used as the fixture for
/// the invariant and derived-state benchmarks.
fn mid_execution_state() -> SysState {
    let sys = abstract_system(3);
    let mut runner = Runner::new(sys, SystemAdversary::default(), 3);
    let exec = runner.run(600).expect("no invariants");
    exec.final_state().clone()
}

fn bench_invariant_suite(c: &mut Criterion) {
    let state = mid_execution_state();
    let checks = all_invariants();
    c.bench_function("invariant_suite_one_state", |b| {
        b.iter(|| {
            // One shared snapshot serves the whole suite.
            let d = DerivedState::new(&state);
            let mut bad = 0;
            for (_, check) in &checks {
                if check(&state, &d).is_err() {
                    bad += 1;
                }
            }
            criterion::black_box(bad)
        })
    });
    // And the abstraction function alone.
    c.bench_function("simulation_abstraction_one_state", |b| {
        b.iter(|| criterion::black_box(gcs_core::simulation::abstraction(&state).queue.len()))
    });
}

fn bench_derived_state(c: &mut Criterion) {
    let state = mid_execution_state();
    c.bench_function("derived_state_snapshot", |b| {
        b.iter(|| criterion::black_box(DerivedState::new(&state).entries.len()))
    });
}

fn bench_checkers(c: &mut Criterion) {
    // Fixture: a recorded implementation trace.
    let mut stack = Stack::new(StackConfig::standard(3, 5, 5));
    let pi = stack.config().pi;
    for i in 0..50u64 {
        stack.schedule_bcast(4 * pi + i * 10, ProcId((i % 3) as u32));
    }
    stack.run_until(4 * pi + 500 + 60 * pi);
    let to_events = stack.to_obs().untimed();
    let vs_actions = stack.vs_actions();
    c.bench_function("to_trace_checker", |b| {
        b.iter(|| criterion::black_box(check_to_trace(&to_events).brcvs))
    });
    // The fixture above is too small to show how the checker grows with
    // the trace: 5 receivers each delivering 20k values from 5 senders.
    let mut big = Vec::new();
    for x in 0..20_000u64 {
        let (src, a) = (ProcId((x % 5) as u32), Value::from_u64(x));
        big.push(ToObs::Bcast { p: src, a: a.clone() });
        big.extend((0..5).map(|q| ToObs::Brcv { src, dst: ProcId(q), a: a.clone() }));
    }
    c.bench_function("to_trace_checker_20k", |b| {
        b.iter(|| criterion::black_box(check_to_trace(&big).brcvs))
    });
    c.bench_function("cause_checker", |b| {
        b.iter(|| {
            criterion::black_box(
                gcs_core::cause::check_trace(&vs_actions, &ProcId::range(3)).gprcv_checked,
            )
        })
    });
}

fn bench_netsim_events(c: &mut Criterion) {
    c.bench_function("netsim_50msg_stack_events", |b| {
        b.iter(|| {
            let mut stack = Stack::new(StackConfig::standard(4, 5, 23));
            let pi = stack.config().pi;
            for i in 0..50u64 {
                stack.schedule_bcast(4 * pi + i * 5, ProcId((i % 4) as u32));
            }
            criterion::black_box(stack.run_until(4 * pi + 250 + 40 * pi))
        })
    });
}

fn bench_obs_overhead(c: &mut Criterion) {
    use gcs_obs::{EventKind, Obs};
    let obs = Obs::new();
    // Pre-resolved handles, as the transport hot paths hold them.
    let counter = obs.registry.counter_labeled("bench_frames_total", &[("node", "0")]);
    let hist = obs.registry.histogram("bench_latency_us");
    let mut g = c.benchmark_group("obs_overhead");
    // Registry off: the bare hot-path work (frame bookkeeping stand-in).
    let mut x = 0u64;
    g.bench_function("frame_path_bare", |b| {
        b.iter(|| {
            x = x.wrapping_add(1);
            criterion::black_box(x)
        })
    });
    // Registry on: what one instrumented frame costs — a counter bump
    // plus a structured trace event.
    g.bench_function("frame_path_instrumented", |b| {
        b.iter(|| {
            counter.inc();
            obs.trace.record(EventKind::Send { from: 0, to: 1 });
        })
    });
    g.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    g.bench_function("histogram_record", |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            hist.record(v >> 40);
        })
    });
    g.bench_function("trace_record", |b| {
        b.iter(|| obs.trace.record(EventKind::Recv { node: 0, from: 1 }))
    });
    // Cold-path lookup cost (label resolution through the shard map).
    g.bench_function("counter_labeled_lookup", |b| {
        b.iter(|| {
            criterion::black_box(
                obs.registry.counter_labeled("bench_frames_total", &[("node", "0")]).get(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_abstract_steps,
    bench_stack_throughput,
    bench_invariant_suite,
    bench_derived_state,
    bench_checkers,
    bench_netsim_events,
    bench_obs_overhead
);
criterion_main!(benches);
