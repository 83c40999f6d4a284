//! One benchmark per paper artifact: each bench exercises the exact
//! code path that regenerates the table/figure, at micro scale, so
//! `cargo bench` both times and smoke-verifies the whole experiment
//! suite. (Full-scale regeneration: `cargo run -p accu-experiments
//! --bin figN --release [--paper]`.)

use accu_core::theory::{adaptive_submodular_ratio, curvature_ratio, exact_marginal_gain};
use accu_core::TraceAccumulator;
use accu_core::{AccuInstanceBuilder, Observation, Realization, UserClass};
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::heatmap::run_heatmap;
use accu_experiments::{
    run_policy_with, Cli, ExperimentScale, FigureRun, PolicyKind, RunOptions, Telemetry,
};
use accu_telemetry::{JsonlSink, Recorder};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use osn_graph::algo::DegreeStats;
use osn_graph::{GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The aggregate of `policy` over `figure`, run with `opts`.
fn run(figure: &FigureRun, policy: PolicyKind, opts: RunOptions<'_>) -> TraceAccumulator {
    run_policy_with(figure, policy, opts)
        .expect("micro figure runs")
        .accumulator
}

/// Micro experiment scale shared by the figure benches.
fn micro_scale() -> ExperimentScale {
    ExperimentScale::from_cli(&Cli {
        samples: Some(1),
        runs: Some(1),
        budget: Some(30),
        scale: Some(0.005),
        ..Cli::default()
    })
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_dataset_stats", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let g = DatasetSpec::facebook()
                .scaled(0.25)
                .generate(&mut rng)
                .unwrap();
            black_box((g.edge_count(), DegreeStats::of(&g)))
        })
    });
}

fn bench_fig1(c: &mut Criterion) {
    let g = GraphBuilder::from_edges(2, [(0u32, 1u32)]).unwrap();
    let inst = AccuInstanceBuilder::new(g)
        .user_class(NodeId::new(0), UserClass::cautious(1))
        .benefits(NodeId::new(0), 2.0, 1.0)
        .build()
        .unwrap();
    let real = Realization::from_parts(&inst, vec![true], vec![false, true]).unwrap();
    c.bench_function("fig1_exact_marginal_gains", |b| {
        b.iter(|| {
            let empty = Observation::for_instance(&inst);
            let d0 = exact_marginal_gain(&inst, &empty, NodeId::new(0)).unwrap();
            let mut grown = Observation::for_instance(&inst);
            grown.record_acceptance(NodeId::new(1), &inst, &real);
            let d1 = exact_marginal_gain(&inst, &grown, NodeId::new(0)).unwrap();
            black_box((d0, d1, curvature_ratio(10.0, 20)))
        })
    });
    c.bench_function("fig1_adaptive_submodular_ratio", |b| {
        b.iter(|| black_box(adaptive_submodular_ratio(&inst).unwrap()))
    });
}

fn bench_fig2(c: &mut Criterion) {
    let scale = micro_scale();
    let mut group = c.benchmark_group("fig2_benefit_vs_k");
    group.sample_size(10);
    for policy in PolicyKind::paper_lineup() {
        group.bench_function(policy.name(), |b| {
            let figure = scale.figure_run(DatasetSpec::twitter(), ProtocolConfig::default());
            b.iter(|| black_box(run(&figure, policy, RunOptions::default()).mean_total_benefit()))
        });
    }
    group.finish();
}

fn bench_fig3(c: &mut Criterion) {
    let scale = micro_scale();
    let mut group = c.benchmark_group("fig3_marginal_breakdown");
    group.sample_size(10);
    group.bench_function("abm_trace_split", |b| {
        let figure = scale.figure_run(DatasetSpec::slashdot(), ProtocolConfig::default());
        b.iter(|| {
            let acc = run(&figure, PolicyKind::abm_balanced(), RunOptions::default());
            black_box((
                acc.mean_marginal_from_cautious(),
                acc.mean_marginal_from_reckless(),
            ))
        })
    });
    group.finish();
}

fn bench_fig4_fig5(c: &mut Criterion) {
    let scale = micro_scale();
    let mut group = c.benchmark_group("fig4_fig5_weight_sweep_point");
    group.sample_size(10);
    for wi in [0.0f64, 0.3] {
        group.bench_function(format!("w_I={wi}"), |b| {
            let figure = scale.figure_run(DatasetSpec::twitter(), ProtocolConfig::default());
            b.iter(|| {
                let acc = run(
                    &figure,
                    PolicyKind::abm_with_indirect(wi),
                    RunOptions::default(),
                );
                black_box((
                    acc.mean_total_benefit(),
                    acc.mean_cautious_friends(),
                    acc.cautious_request_fraction(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_fig6_fig7(c: &mut Criterion) {
    let scale = micro_scale();
    let mut tel = Telemetry::from_cli(&Cli::default(), "bench-heatmap");
    let mut group = c.benchmark_group("fig6_fig7_heatmap");
    group.sample_size(10);
    group.bench_function("2x2_grid", |b| {
        b.iter(|| {
            let hm = run_heatmap(&scale, &[20.0, 60.0], &[0.1, 0.5], &mut tel);
            black_box((hm.benefit, hm.cautious))
        })
    });
    group.finish();
}

/// Not a timed benchmark: runs the micro-scale Fig. 2 pipeline once
/// with an enabled recorder and writes the telemetry snapshot next to
/// the bench results.
fn emit_telemetry_snapshot(_c: &mut Criterion) {
    let scale = micro_scale();
    let recorder = Recorder::enabled();
    let figure = scale.figure_run(DatasetSpec::twitter(), ProtocolConfig::default());
    black_box(run(
        &figure,
        PolicyKind::abm_balanced(),
        RunOptions {
            recorder: recorder.clone(),
            ..RunOptions::default()
        },
    ));
    let snapshot = recorder
        .snapshot("bench/fig2_micro")
        .expect("recorder is enabled");
    // Benches run with the package dir as CWD; anchor to the workspace
    // target dir so the snapshot lands next to the Criterion results.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/experiments/telemetry/bench_figures.jsonl");
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
    bench_table1,
    bench_fig1,
    bench_fig2,
    bench_fig3,
    bench_fig4_fig5,
    bench_fig6_fig7,
    emit_telemetry_snapshot
);
criterion_main!(benches);
