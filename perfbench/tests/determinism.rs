//! The benchmark's own checks, at tiny sizes: work counters repeat exactly
//! for a seed and are untouched by tracing, and the traced run reports
//! exactly the per-layer metrics `BENCHMARK.json` declares.

use perfbench::{run_workload, traced_sweep, Ctx, Scale, Stop, Tracer, Workload};
use std::collections::BTreeSet;

const OPS: u64 = 60;

fn tiny(seed: u64) -> Ctx {
    Ctx {
        seed,
        threads: 2,
        scale: Scale::Tiny,
        stop: Stop::Ops(OPS),
    }
}

#[test]
fn counters_repeat_exactly_for_a_seed() {
    for w in Workload::ALL {
        let run = |traced: bool| {
            run_workload(w, &tiny(11), 1, &mut Tracer::new(traced))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
                .1
        };
        let (first, second, traced) = (run(false), run(false), run(true));
        assert!(
            first.counters.values().any(|&v| v > 0),
            "{}: no work counted",
            w.name()
        );
        assert_eq!(
            first.counters,
            second.counters,
            "{}: counters moved",
            w.name()
        );
        assert_eq!(
            first.counters,
            traced.counters,
            "{}: tracing changed the work",
            w.name()
        );
        assert!(first.attempted >= OPS && first.failed == 0, "{}", w.name());
    }
}

#[test]
fn traced_run_reports_every_declared_per_layer_metric() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let per_layer = &spec[spec.find("\"per_layer\"").expect("a per_layer list")..];
    let declared: BTreeSet<&str> = per_layer
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("a closing quote")])
        .collect();
    let traced = traced_sweep(Workload::DurableChurn, &tiny(3), None).expect("traced sweep");
    let reported: BTreeSet<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        reported.len(),
        traced.metrics.len(),
        "a metric is reported twice"
    );
    assert_eq!(reported, declared);
    assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
}
