//! Shared fixtures and provenance helpers for the ACCU benchmarks.

#![forbid(unsafe_code)]

use accu_core::AccuInstance;
use accu_datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A reproducible benchmark instance: a scaled dataset with the paper's
/// protocol applied.
pub fn bench_instance(spec: DatasetSpec, scale: f64, cautious: usize, seed: u64) -> AccuInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = spec.scaled(scale).generate(&mut rng).expect("generation");
    apply_protocol(
        graph,
        &ProtocolConfig {
            cautious_count: cautious,
            ..ProtocolConfig::default()
        },
        &mut rng,
    )
    .expect("protocol")
}

/// The default benchmark network: a ~1.6k-node Twitter stand-in.
pub fn default_instance() -> AccuInstance {
    bench_instance(DatasetSpec::twitter(), 0.02, 20, 42)
}

/// Renders a unix timestamp as a UTC `YYYY-MM-DD` date (civil-from-days
/// conversion — no time-zone database, no dependency).
pub fn utc_date(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The git revision of the working tree, for trajectory provenance.
/// Best-effort: builds from a tarball (no repo, no git binary) stamp
/// `"unknown"`.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical cores visible to this process — the host-context stamp the
/// trajectory log carries so entries from differently-sized machines
/// are never compared as like-for-like.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process in mebibytes, read from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or when the field is
/// missing; benches report it best-effort.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let inst = default_instance();
        assert!(inst.node_count() > 1_000);
        assert_eq!(inst.cautious_users().len(), 20);
    }

    #[test]
    fn utc_date_renders_known_epochs() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_868_800), "2000-03-01");
        assert_eq!(utc_date(1_754_006_400), "2025-08-01");
    }

    #[test]
    fn host_probes_return_sane_values() {
        assert!(host_cores() >= 1);
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 1.0, "peak RSS {mib} MiB is implausibly small");
        }
    }
}
