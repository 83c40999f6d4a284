//! Regenerates **Fig. 3** — average marginal benefit of every friend
//! request, broken down into the components contributed by cautious and
//! by reckless users (ABM, `w_D = w_I = 0.5`).
//!
//! This is the figure explaining the convex segments of Fig. 2: regions
//! where ABM invests requests in the (low-immediate-gain) friends of
//! cautious users show depressed marginal gain, followed by the cautious
//! users' large `B_f` when the thresholds are crossed.

use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::output::{downsample_indices, series_table};
use accu_experiments::{Cli, ExperimentScale, PolicyKind, Telemetry};

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
    let mut tel = Telemetry::from_cli(&cli, "fig3");
    println!(
        "Fig. 3: average marginal benefit per request, cautious vs reckless ({})",
        scale.describe()
    );

    for dataset in DatasetSpec::all_paper_datasets() {
        let figure = scale.figure_run(dataset.clone(), ProtocolConfig::default());
        println!("\n=== {} ===", figure.dataset);
        let acc = tel.run(&figure, PolicyKind::abm_balanced());
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
            ("total", total.clone()),
            ("from_cautious", cautious.clone()),
            ("from_reckless", reckless.clone()),
        ];
        let ds = dataset.name().to_lowercase();
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

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}
