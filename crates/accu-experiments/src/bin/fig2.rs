//! Regenerates **Fig. 2** — amount of benefits obtained, varying the
//! number of friend requests `k`, for ABM / PageRank / MaxDegree /
//! Random on all four datasets.
//!
//! Setup per paper §IV-B: `B_f(cautious) = 50`, thresholds at 30% of
//! degree, `w_D = w_I = 0.5`.

use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::chart::Chart;
use accu_experiments::output::{downsample_indices, series_table};
use accu_experiments::{Cli, ExperimentScale, PolicyKind, Telemetry};

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
        let series: Vec<(&str, Vec<f64>)> = PolicyKind::paper_lineup()
            .into_iter()
            .map(|policy| {
                let acc = tel.run(&figure, policy);
                (policy.name(), acc.mean_cumulative_benefit())
            })
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
    }

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}
