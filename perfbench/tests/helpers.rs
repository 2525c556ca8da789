//! Self-tests of the benchmark's own helpers: order statistics, the
//! ten-samples-beyond rule, closure arithmetic, span self time, the
//! correctness gate and seed determinism.

use paradmm_core::{SolveRequest, StopReason};
use perfbench::json::Json;
use perfbench::layers::{bytes_per_iteration, traced_solve};
use perfbench::paths::{self, Failures, Reference};
use perfbench::stats::{
    closure_ok, closure_ratio, covered, median, minimum, nearest_rank, percentile, samples_beyond,
    sum_of_fastest, tail, tail_percentile,
};
use perfbench::trace::Tracer;
use perfbench::workloads::{ProblemSpec, Shape, Workload, FLEET_INSTANCES, SERVE_RATE};

fn one_to(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn nearest_rank_percentiles() {
    let xs = one_to(100);
    assert_eq!(percentile(&xs, 50.0), Some(50.0));
    assert_eq!(percentile(&xs, 99.0), Some(99.0));
    assert_eq!(percentile(&xs, 100.0), Some(100.0));
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(nearest_rank(10, 0.1), 1);
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(minimum(&[4.0, 1.0, 3.0, 2.0]), Some(1.0));
    assert_eq!(minimum(&[]), None);
    // Each call's fastest pass, summed: 1 + 2, not the fastest pass (4).
    let calls = [vec![1.0, 3.0], vec![3.0, 2.0]];
    assert_eq!(sum_of_fastest(&calls), Some(3.0));
    assert_eq!(sum_of_fastest(&[vec![1.0], vec![]]), None);
}

#[test]
fn tail_uses_the_highest_percentile_with_ten_samples_beyond() {
    // p99 of 1000 samples leaves exactly ten beyond it.
    assert_eq!(tail_percentile(1000, 99.0), 99.0);
    // One sample fewer and p99 leaves nine: fall back to p95.
    assert_eq!(tail_percentile(999, 99.0), 95.0);
    assert_eq!(tail_percentile(200, 99.0), 95.0);
    assert_eq!(tail_percentile(100, 99.0), 90.0);
    assert_eq!(tail_percentile(20, 99.0), 50.0);
    // Never above the percentile asked for.
    assert_eq!(tail_percentile(100_000, 95.0), 95.0);
    // Too few samples for any tail: the maximum, labelled p100.
    assert_eq!(tail_percentile(16, 99.0), 0.0);
    assert_eq!(tail(&one_to(16), 99.0), Some((100.0, 16.0)));
    assert_eq!(tail(&one_to(1000), 99.0), Some((99.0, 990.0)));
    assert_eq!(tail(&[], 99.0), None);
}

#[test]
fn closure_arithmetic() {
    assert_eq!(closure_ratio(0.5, 1.0), 0.5);
    assert!(closure_ok(closure_ratio(0.96, 1.0)));
    assert!(closure_ok(closure_ratio(1.04, 1.0)));
    assert!(!closure_ok(closure_ratio(0.94, 1.0)));
    assert!(!closure_ok(closure_ratio(1.06, 1.0)));
    assert!(
        !closure_ok(closure_ratio(1.0, 0.0)),
        "an empty wall-clock never closes"
    );
}

#[test]
fn covered_counts_overlaps_once_and_clips_to_the_parent() {
    assert_eq!(covered(0.0, 10.0, &[]), 0.0);
    assert_eq!(covered(0.0, 10.0, &[(1.0, 3.0), (2.0, 4.0)]), 3.0);
    assert_eq!(covered(0.0, 10.0, &[(1.0, 2.0), (5.0, 6.0)]), 2.0);
    assert_eq!(covered(2.0, 4.0, &[(0.0, 3.0), (3.5, 9.0)]), 1.5);
}

#[test]
fn self_time_is_span_minus_children() {
    let mut t = Tracer::new();
    let root = t.record("run", 0.0, 10.0, None, u64::MAX);
    let a = t.record("a", 1.0, 4.0, Some(root), 0);
    t.record("a.child", 2.0, 3.0, Some(a), 0);
    t.record("b", 3.0, 6.0, Some(root), 1);
    let self_times = t.self_times();
    assert_eq!(self_times, vec![5.0, 2.0, 1.0, 3.0]);
    let totals = t.totals_by_name();
    assert_eq!(totals["run"], (1, 10.0, 5.0));
    assert!(t.to_json().contains("\"name\": \"a.child\""));
}

#[test]
fn switched_spans_leave_no_gap() {
    let mut t = Tracer::new();
    let parent = t.begin("solve", None, 7);
    let first = t.begin("block", Some(parent), 7);
    let (_, second) = t.switch(first, "check");
    t.end(second);
    t.end(parent);
    let spans: Vec<_> = t.spans().collect();
    assert_eq!(spans[1].end, spans[2].start);
    assert_eq!(spans[2].parent, Some(parent));
    assert_eq!(spans[2].request, 7);
    assert_eq!(t.len(), 3);
}

#[test]
fn tracer_keeps_spans_across_chunks() {
    let mut t = Tracer::new();
    for i in 0..10_000u64 {
        let s = t.begin("x", None, i);
        t.end(s);
    }
    assert_eq!(t.len(), 10_000);
    assert_eq!(t.spans().last().map(|s| s.request), Some(9_999));
}

#[test]
fn json_writer() {
    let doc = Json::object(vec![
        ("a", Json::Num(1.5)),
        ("b", Json::Str("q\"\\\n".into())),
        (
            "c",
            Json::Array(vec![Json::Bool(true), Json::Null, Json::Num(f64::NAN)]),
        ),
        ("d", Json::Num(3.0)),
    ]);
    assert_eq!(
        doc.to_string(),
        r#"{"a": 1.5, "b": "q\"\\\n", "c": [true, null, null], "d": 3}"#
    );
}

#[test]
fn bytes_per_iteration_from_array_sizes() {
    // 13·E·d + E + 2·V·d doubles.
    assert_eq!(bytes_per_iteration(10, 4, 2), 8.0 * (260 + 10 + 16) as f64);
}

fn reference(z: Vec<f64>) -> Reference {
    Reference {
        iterations: 20,
        stop_reason: StopReason::Converged,
        z,
        solo_s: 0.001,
        step_tolerance: 0.01,
    }
}

#[test]
fn gate_requires_bit_identity_for_cold_results() {
    let r = reference(vec![1.0, 2.0]);
    let mut f = Failures::default();
    f.check_identical(20, StopReason::Converged, &[1.0, 2.0], &r);
    assert_eq!(f.total(), 0);
    f.check_identical(20, StopReason::Converged, &[1.0, 2.0 + 1e-15], &r);
    f.check_identical(30, StopReason::Converged, &[1.0, 2.0], &r);
    f.check_identical(20, StopReason::MaxIterations, &[1.0, 2.0], &r);
    assert_eq!((f.attempted, f.mismatch, f.not_converged), (4, 2, 1));
    assert!(paths::bits_equal(&[0.0], &[0.0]));
    assert!(!paths::bits_equal(&[0.0], &[-0.0]));
}

#[test]
fn gate_bounds_warm_results_by_steps_taken() {
    let r = reference(vec![0.0, 0.0]);
    let mut f = Failures::default();
    // 10 steps of at most 0.01 each may move z by 0.1.
    f.check_close(10, StopReason::Converged, &[0.06, 0.08], &r);
    assert_eq!(f.total(), 0);
    f.check_close(10, StopReason::Converged, &[0.1, 0.1], &r);
    f.check_close(10, StopReason::MaxIterations, &[0.0, 0.0], &r);
    assert_eq!((f.attempted, f.mismatch, f.not_converged), (3, 1, 1));
}

#[test]
fn same_seed_same_inputs() {
    for name in ["svm-large", "mpc-fleet", "serve-mpc"] {
        let a = Workload::generate(name, 7, 3.0).expect("known workload");
        let b = Workload::generate(name, 7, 3.0).expect("known workload");
        let c = Workload::generate(name, 8, 3.0).expect("known workload");
        // Debug output prints every f64 exactly, so equal text means
        // byte-identical inputs.
        let text = |w: &Workload| format!("{:?}{:?}", w.problems, w.requests);
        assert_eq!(text(&a), text(&b), "{name}: same seed, same inputs");
        assert_ne!(text(&a), text(&c), "{name}: another seed, other inputs");
    }
}

#[test]
fn workload_shapes() {
    let svm = Shape::measure(&Workload::generate("svm-large", 1, 0.0).expect("known"));
    assert_eq!(
        (svm.requests, svm.edges, svm.dims_mix.clone()),
        (1, 23_998, vec![(3, 1)])
    );

    let fleet = Workload::generate("mpc-fleet", 1, 0.0).expect("known");
    let shape = Shape::measure(&fleet);
    assert_eq!(shape.requests, FLEET_INSTANCES);
    for (i, p) in fleet.problems.iter().enumerate() {
        let ProblemSpec::Mpc(cfg) = p else {
            panic!("mpc-fleet holds MPC problems only")
        };
        let range = if i % 7 == 0 { 40..=200 } else { 5..=20 };
        assert!(
            range.contains(&cfg.horizon),
            "instance {i}: horizon {}",
            cfg.horizon
        );
    }

    let serve = Shape::measure(&Workload::generate("serve-mpc", 1, 20.0).expect("known"));
    let expected = SERVE_RATE * 20.0;
    let n = serve.requests as f64;
    assert!(
        (n - expected).abs() < 0.1 * expected,
        "about {SERVE_RATE} req/s over 20 s, got {n}"
    );
    assert!((serve.repeat_share - 0.25).abs() < 0.01);
    assert!((serve.critical_share - 1.0 / 16.0).abs() < 0.01);
    assert_eq!(
        serve.dims_mix.iter().map(|d| d.0).collect::<Vec<_>>(),
        vec![2, 5]
    );
}

#[test]
fn traced_solve_reproduces_solver_run() {
    let w = Workload::generate("mpc-fleet", 3, 0.0).expect("known");
    for p in [1usize, 2] {
        let problem = w.problems[p].build();
        let mut backend = paths::spec("serial").to_backend();
        let mut tracer = Tracer::new();
        let traced = traced_solve(
            &problem,
            &w.stopping,
            backend.as_mut(),
            &mut tracer,
            None,
            0,
        );
        let solved = SolveRequest::new(w.problems[p].build())
            .with_stopping(w.stopping)
            .solve();
        assert_eq!(traced.iterations, solved.iterations);
        assert_eq!(traced.stop_reason, solved.stop_reason);
        assert!(paths::bits_equal(&traced.store.z, &solved.store.z));
        assert_eq!(traced.blocks, solved.iterations / w.stopping.check_every);
        assert_eq!(tracer.len(), 1 + 2 * traced.blocks);
    }
}
