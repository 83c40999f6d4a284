//! Regenerates **Fig. 2** — amount of benefits obtained, varying the
//! number of friend requests `k`, for ABM / PageRank / MaxDegree /
//! Random on all four datasets — and, from the same ABM cells,
//! **Fig. 3** — the average marginal benefit of every friend request,
//! broken down into the components contributed by cautious and by
//! reckless users.
//!
//! Setup per paper §IV-B: `B_f(cautious) = 50`, thresholds at 30% of
//! degree, `w_D = w_I = 0.5`.
//!
//! Fig. 3 explains the convex segments of Fig. 2: regions where ABM
//! invests requests in the (low-immediate-gain) friends of cautious
//! users show depressed marginal gain, followed by the cautious users'
//! large `B_f` when the thresholds are crossed.

use accu_core::TraceAccumulator;
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::chart::Chart;
use accu_experiments::output::{downsample_indices, series_table};
use accu_experiments::{Cli, ExperimentScale, FigureRun, PolicyKind, Telemetry};

/// Centered moving average for readability (the paper plots noisy
/// per-request bars; a light smoothing keeps the shape visible in text).
fn smooth(ys: &[f64], window: usize) -> Vec<f64> {
    let half = window / 2;
    (0..ys.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(ys.len());
            ys[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

fn main() {
    let cli = Cli::parse();
    let scale = ExperimentScale::from_cli(&cli);
    let mut tel = Telemetry::from_cli(&cli, "fig2");
    println!(
        "Fig. 2: benefit vs number of requests ({})",
        scale.describe()
    );

    for dataset in DatasetSpec::all_paper_datasets() {
        let figure = scale.figure_run(dataset.clone(), ProtocolConfig::default());
        println!("\n=== {} ===", figure.dataset);
        let lineup = PolicyKind::paper_lineup();
        let cells: Vec<_> = lineup.iter().map(|&p| (figure.clone(), p)).collect();
        let accs = tel.run(&cells);
        let series: Vec<(&str, Vec<f64>)> = lineup
            .iter()
            .zip(&accs)
            .map(|(policy, acc)| (policy.name(), acc.mean_cumulative_benefit()))
            .collect();
        let idx = downsample_indices(figure.budget, 64);
        let xs: Vec<f64> = idx.iter().map(|&i| (i + 1) as f64).collect();
        let sampled: Vec<(&str, Vec<f64>)> = series
            .iter()
            .map(|(name, ys)| (*name, idx.iter().map(|&i| ys[i]).collect()))
            .collect();
        let mut chart = Chart::new(&xs).size(64, 16).labels("requests k", "benefit");
        for (name, ys) in &sampled {
            chart = chart.series(name, ys);
        }
        chart.print();
        println!();
        let tidx = downsample_indices(figure.budget, 20);
        let txs: Vec<f64> = tidx.iter().map(|&i| (i + 1) as f64).collect();
        let tsampled: Vec<(&str, Vec<f64>)> = series
            .iter()
            .map(|(name, ys)| (*name, tidx.iter().map(|&i| ys[i]).collect()))
            .collect();
        series_table("k", &txs, &tsampled).print();

        // Full-resolution CSV for plotting.
        let full_xs: Vec<f64> = (0..figure.budget).map(|i| (i + 1) as f64).collect();
        let ds = dataset.name().to_lowercase();
        tel.write_csv(&series_table("k", &full_xs, &series), &format!("fig2_{ds}"));

        // Headline check: final benefit ordering.
        let finals: Vec<(&str, f64)> = series
            .iter()
            .map(|(n, ys)| (*n, *ys.last().unwrap_or(&0.0)))
            .collect();
        let best = finals
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        println!(
            "final benefits: {}  (winner: {})",
            finals
                .iter()
                .map(|(n, v)| format!("{n}={v:.0}"))
                .collect::<Vec<_>>()
                .join(", "),
            best.0
        );

        let abm = lineup
            .iter()
            .position(|&policy| policy == PolicyKind::abm_balanced())
            .expect("the paper lineup runs ABM with w_D = w_I = 0.5");
        fig3(&mut tel, &figure, &accs[abm]);
    }

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}

/// Prints Fig. 3's table for one dataset from its ABM cell and writes
/// `fig3_<dataset>.csv`.
fn fig3(tel: &mut Telemetry, figure: &FigureRun, acc: &TraceAccumulator) {
    println!(
        "\nFig. 3 ({}): average marginal benefit per request, cautious vs reckless",
        figure.dataset.name()
    );
    let cautious = acc.mean_marginal_from_cautious();
    let reckless = acc.mean_marginal_from_reckless();
    let total: Vec<f64> = cautious.iter().zip(&reckless).map(|(a, b)| a + b).collect();

    let window = (figure.budget / 30).max(1);
    let sm_cautious = smooth(&cautious, window);
    let sm_reckless = smooth(&reckless, window);
    let sm_total = smooth(&total, window);

    let idx = downsample_indices(figure.budget, 20);
    let xs: Vec<f64> = idx.iter().map(|&i| (i + 1) as f64).collect();
    let sampled = vec![
        (
            "total",
            idx.iter().map(|&i| sm_total[i]).collect::<Vec<_>>(),
        ),
        (
            "from_cautious",
            idx.iter().map(|&i| sm_cautious[i]).collect(),
        ),
        (
            "from_reckless",
            idx.iter().map(|&i| sm_reckless[i]).collect(),
        ),
    ];
    series_table("request", &xs, &sampled).print();

    let full_xs: Vec<f64> = (0..figure.budget).map(|i| (i + 1) as f64).collect();
    let full = vec![
        ("total", total),
        ("from_cautious", cautious.clone()),
        ("from_reckless", reckless),
    ];
    let ds = figure.dataset.name().to_lowercase();
    tel.write_csv(
        &series_table("request", &full_xs, &full),
        &format!("fig3_{ds}"),
    );

    // Where is the cautious benefit concentrated?
    let peak = cautious
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, v)| (i + 1, *v))
        .unwrap_or((0, 0.0));
    println!(
        "cautious-user benefit peaks at request {} (avg gain {:.2}); total from cautious {:.1}",
        peak.0,
        peak.1,
        cautious.iter().sum::<f64>()
    );
}
