//! Benchmarks of the ABM policy, including the DESIGN.md ablation of
//! incremental potentials (sums kept by deltas, a stamped touched set,
//! winner-tree argmax) against a naive full-rescan greedy, and the
//! `w_I` weight sweep.

use accu_bench::default_instance;
use accu_core::policy::{Abm, AbmWeights, Policy};
use accu_core::{
    run_attack, run_attack_with, AttackOptions, AttackerView, EpisodeScratch, Observation,
    Realization,
};
use accu_telemetry::{JsonlSink, Recorder};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use osn_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Naive ABM: identical scoring, but recomputes every candidate's
/// potential from scratch at every step (the paper's Algorithm 1 as
/// literally written). The ablation baseline.
struct NaiveAbm {
    inner: Abm,
}

impl Policy for NaiveAbm {
    fn name(&self) -> &str {
        "NaiveABM"
    }
    fn reset(&mut self, _view: &AttackerView<'_>) {}
    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        view.candidates()
            .map(|u| (self.inner.potential_of(view, u), u))
            .max_by(|a, b| a.0.total_cmp(&b.0).then_with(|| b.1.cmp(&a.1)))
            .map(|(_, u)| u)
    }
}

fn bench_full_attack(c: &mut Criterion) {
    let instance = default_instance();
    let mut rng = StdRng::seed_from_u64(9);
    let realization = Realization::sample(&instance, &mut rng);

    let mut group = c.benchmark_group("abm_attack_k100");
    group.sample_size(20);
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let mut abm = Abm::new(AbmWeights::balanced());
            black_box(run_attack(&instance, &realization, &mut abm, 100).total_benefit)
        })
    });
    group.bench_function("naive_full_rescan", |b| {
        b.iter(|| {
            let mut naive = NaiveAbm {
                inner: Abm::new(AbmWeights::balanced()),
            };
            black_box(run_attack(&instance, &realization, &mut naive, 100).total_benefit)
        })
    });
    group.finish();
}

fn bench_weight_sweep(c: &mut Criterion) {
    let instance = default_instance();
    let mut rng = StdRng::seed_from_u64(11);
    let realization = Realization::sample(&instance, &mut rng);
    let mut group = c.benchmark_group("abm_weight_sweep_k50");
    group.sample_size(20);
    for wi in [0.0f64, 0.2, 0.5] {
        group.bench_with_input(BenchmarkId::from_parameter(wi), &wi, |b, &wi| {
            b.iter(|| {
                let mut abm = Abm::new(AbmWeights::with_indirect(wi));
                black_box(run_attack(&instance, &realization, &mut abm, 50).total_benefit)
            })
        });
    }
    group.finish();
}

fn bench_potential_evaluation(c: &mut Criterion) {
    let instance = default_instance();
    let observation = Observation::for_instance(&instance);
    let abm = Abm::new(AbmWeights::balanced());
    c.bench_function("abm_potential_all_candidates", |b| {
        let view = AttackerView::new(&instance, &observation);
        b.iter(|| {
            let mut acc = 0.0f64;
            for u in view.candidates() {
                acc += abm.potential_of(&view, u);
            }
            black_box(acc)
        })
    });
}

fn bench_reset(c: &mut Criterion) {
    let instance = default_instance();
    let observation = Observation::for_instance(&instance);
    c.bench_function("abm_reset_tree_build", |b| {
        let view = AttackerView::new(&instance, &observation);
        b.iter(|| {
            let mut abm = Abm::new(AbmWeights::balanced());
            abm.reset(&view);
            black_box(abm.select(&view))
        })
    });
}

/// Not a timed benchmark: replays the k=100 attack once with an enabled
/// recorder and writes the per-stage telemetry snapshot next to the
/// bench results, so a profile accompanies every `cargo bench` run.
fn emit_telemetry_snapshot(_c: &mut Criterion) {
    let instance = default_instance();
    let mut rng = StdRng::seed_from_u64(9);
    let mut scratch = EpisodeScratch::new();
    scratch.realization.sample_into(&instance, &mut rng);
    let recorder = Recorder::enabled();
    let mut abm = Abm::with_recorder(AbmWeights::balanced(), &recorder);
    let opts = AttackOptions {
        recorder: &recorder,
        ..AttackOptions::default()
    };
    black_box(run_attack_with(&instance, &mut abm, 100, &opts, &mut scratch).unwrap());
    let snapshot = recorder
        .snapshot("bench/abm_attack_k100")
        .expect("recorder is enabled");
    // Benches run with the package dir as CWD; anchor to the workspace
    // target dir so the snapshot lands next to the Criterion results.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/experiments/telemetry/bench_abm.jsonl");
    let write = JsonlSink::create(&path).and_then(|mut sink| {
        sink.write_snapshot(&snapshot)?;
        sink.flush()
    });
    match write {
        Ok(()) => println!("telemetry snapshot written to {}", path.display()),
        Err(e) => eprintln!("telemetry write failed: {e}"),
    }
}

criterion_group!(
    benches,
    bench_full_attack,
    bench_weight_sweep,
    bench_potential_evaluation,
    bench_reset,
    emit_telemetry_snapshot
);
criterion_main!(benches);
