//! Deterministic *infrastructure* chaos: seeded failpoint schedules for
//! disk faults, torn writes, worker panics, and worker stalls.
//!
//! [`crate::fault`] (PR 2) models the *protocol* layer — the platform
//! dropping responses or rate-limiting the attacker. This module models
//! the layer underneath the experiment harness itself: the filesystem
//! returning `ENOSPC`/`EINTR`, a write being torn mid-buffer, a worker
//! thread panicking or going to sleep. Both layers share the same
//! discipline: every fault is pre-determined by `(config, site, op)` so
//! the identical chaos schedule hits every policy, every worker count,
//! and every resume of the same run — which is what makes byte-identical
//! recovery testable at all.
//!
//! The experiment crate wraps its sinks (checkpoint, progress, trace) in
//! chaos-aware writers that consult [`ChaosConfig::io_fault`] before
//! each physical write; each runner worker consults
//! [`ChaosConfig::worker_fault`] on its first attempt at a network.
//! [`ChaosConfig::none`] injects nothing and adds zero overhead.

use crate::error::AccuError;
use crate::fault::splitmix64;
use crate::realization::unit;
use std::time::Duration;

/// Canonical metric names for chaos accounting, so producers and
/// dashboards agree on spelling.
pub mod chaos_metrics {
    /// Counter: total injected I/O faults (all kinds).
    pub const IO_FAULTS: &str = "chaos.io_faults";
    /// Counter: injected disk-full (`ENOSPC`) errors.
    pub const DISK_FULL: &str = "chaos.disk_full";
    /// Counter: injected `EINTR` interruptions (retried by callers).
    pub const EINTR: &str = "chaos.eintr";
    /// Counter: injected torn writes (partial buffer then error).
    pub const TORN_WRITES: &str = "chaos.torn_writes";
    /// Counter: injected worker panics.
    pub const WORKER_PANICS: &str = "chaos.worker_panics";
    /// Counter: injected worker stalls.
    pub const WORKER_STALLS: &str = "chaos.worker_stalls";
}

/// Tunable chaos intensities. All probabilities are per-operation (one
/// physical write, one network claim) and must lie in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability a physical sink write fails with disk-full.
    pub disk_full: f64,
    /// Probability a physical sink write is interrupted (`EINTR`).
    /// Callers are expected to retry, so this exercises retry paths
    /// without losing data.
    pub eintr: f64,
    /// Probability a physical sink write is torn: half the buffer is
    /// written and synced, then the write errors.
    pub torn_write: f64,
    /// Probability a worker panics when claiming a network (first
    /// attempt only, so the worker's in-place retry always makes
    /// progress).
    pub worker_panic: f64,
    /// Probability a worker stalls for [`ChaosConfig::stall_ms`] when
    /// claiming a network (first attempt only).
    pub worker_stall: f64,
    /// Injected stall duration in milliseconds.
    pub stall_ms: u64,
    /// Abort the process (simulated SIGKILL) after this many durable
    /// checkpoint appends. Gives CI a deterministic kill point.
    pub kill_after_appends: Option<u64>,
    /// Salt for the chaos stream, decorrelated from the realization and
    /// protocol-fault streams.
    pub seed: u64,
}

impl ChaosConfig {
    /// No chaos at all — the production configuration.
    pub fn none() -> Self {
        ChaosConfig {
            disk_full: 0.0,
            eintr: 0.0,
            torn_write: 0.0,
            worker_panic: 0.0,
            worker_stall: 0.0,
            stall_ms: 50,
            kill_after_appends: None,
            seed: 0,
        }
    }

    /// Whether this config can never inject a fault.
    pub fn is_none(&self) -> bool {
        self.disk_full <= 0.0
            && self.eintr <= 0.0
            && self.torn_write <= 0.0
            && self.worker_panic <= 0.0
            && self.worker_stall <= 0.0
            && self.kill_after_appends.is_none()
    }

    /// A one-knob preset: `intensity` in `[0, 1]` scales every chaos
    /// channel from "none" to "hostile infrastructure". Worker faults
    /// stay an order of magnitude rarer than I/O faults so the runner's
    /// restart budget survives even at full intensity.
    pub fn scaled(intensity: f64) -> Self {
        let f = intensity.clamp(0.0, 1.0);
        if f == 0.0 {
            return ChaosConfig::none();
        }
        ChaosConfig {
            disk_full: 0.05 * f,
            eintr: 0.10 * f,
            torn_write: 0.05 * f,
            worker_panic: 0.01 * f,
            worker_stall: 0.02 * f,
            stall_ms: 50,
            kill_after_appends: None,
            seed: 0,
        }
    }

    /// Checks every probability is in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`AccuError::InvalidProbability`] naming the offending
    /// channel.
    pub fn validate(&self) -> Result<(), AccuError> {
        for (what, value) in [
            ("chaos disk full", self.disk_full),
            ("chaos eintr", self.eintr),
            ("chaos torn write", self.torn_write),
            ("chaos worker panic", self.worker_panic),
            ("chaos worker stall", self.worker_stall),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(AccuError::InvalidProbability { what, value });
            }
        }
        Ok(())
    }

    /// Parses a `--chaos` spec.
    ///
    /// A bare float is shorthand for [`ChaosConfig::scaled`]. Otherwise
    /// the spec is a comma-separated list of `key=value` tokens:
    /// `disk`, `eintr`, `torn`, `panic`, `stall` (probabilities),
    /// `stall-ms`, `kill-after`, `seed` (integers). Example:
    /// `torn=0.2,panic=0.05,seed=7`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown keys, malformed
    /// numbers, or out-of-range probabilities.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty --chaos spec".into());
        }
        if let Ok(intensity) = spec.parse::<f64>() {
            if !(0.0..=1.0).contains(&intensity) {
                return Err(format!("chaos intensity {intensity} outside [0, 1]"));
            }
            return Ok(ChaosConfig::scaled(intensity));
        }
        let mut config = ChaosConfig::none();
        for token in spec.split(',') {
            let token = token.trim();
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("chaos token `{token}` is not key=value"))?;
            let prob = |slot: &mut f64| -> Result<(), String> {
                *slot = value
                    .parse::<f64>()
                    .map_err(|_| format!("chaos {key}: `{value}` is not a number"))?;
                Ok(())
            };
            match key {
                "disk" => prob(&mut config.disk_full)?,
                "eintr" => prob(&mut config.eintr)?,
                "torn" => prob(&mut config.torn_write)?,
                "panic" => prob(&mut config.worker_panic)?,
                "stall" => prob(&mut config.worker_stall)?,
                "stall-ms" => {
                    config.stall_ms = value
                        .parse()
                        .map_err(|_| format!("chaos stall-ms: `{value}` is not an integer"))?;
                }
                "kill-after" => {
                    config.kill_after_appends =
                        Some(value.parse().map_err(|_| {
                            format!("chaos kill-after: `{value}` is not an integer")
                        })?);
                }
                "seed" => {
                    config.seed = value
                        .parse()
                        .map_err(|_| format!("chaos seed: `{value}` is not an integer"))?;
                }
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        config
            .validate()
            .map_err(|e| format!("invalid chaos spec: {e}"))?;
        Ok(config)
    }

    /// The fault (if any) injected into operation number `op` at the
    /// named sink `site`. Sites are open-ended strings; the harness
    /// draws from `"checkpoint"`, `"progress"` and `"trace"`.
    /// Deterministic in `(self, site, op)`: a pure function, identical on
    /// every thread, worker count and resume.
    pub fn io_fault(&self, site: &str, op: u64) -> Option<IoFault> {
        if self.disk_full <= 0.0 && self.eintr <= 0.0 && self.torn_write <= 0.0 {
            return None;
        }
        let key = fnv1a(site.as_bytes()) ^ op.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let u = unit(mix(self.seed, key));
        if u < self.disk_full {
            Some(IoFault::DiskFull)
        } else if u < self.disk_full + self.eintr {
            Some(IoFault::Interrupted)
        } else if u < self.disk_full + self.eintr + self.torn_write {
            Some(IoFault::TornWrite)
        } else {
            None
        }
    }

    /// The fault (if any) injected when a worker first claims network
    /// `net`. Deterministic in `(self, net)` — and therefore
    /// independent of which worker claims the network or how many
    /// workers exist.
    pub fn worker_fault(&self, net: usize) -> Option<WorkerFault> {
        if self.worker_panic <= 0.0 && self.worker_stall <= 0.0 {
            return None;
        }
        let key = (net as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC2B2_AE3D_27D4_EB4F;
        let u = unit(mix(self.seed, key));
        if u < self.worker_panic {
            Some(WorkerFault::Panic)
        } else if u < self.worker_panic + self.worker_stall {
            Some(WorkerFault::Stall(Duration::from_millis(self.stall_ms)))
        } else {
            None
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::none()
    }
}

/// An injected I/O fault at a sink write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The write fails wholesale with an `ENOSPC`-style error.
    DiskFull,
    /// The write is interrupted before any byte lands (`EINTR`);
    /// callers retry.
    Interrupted,
    /// Half the buffer is written (and synced), then the write errors —
    /// the power-failure shape checkpoint recovery must survive.
    TornWrite,
}

/// An injected worker-level fault at a network claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker panics; it must catch the panic and retry the
    /// network.
    Panic,
    /// The worker sleeps for the given duration before running the
    /// network. This only delays the network, which must still fold
    /// correctly out of order.
    Stall(Duration),
}

/// Mixes the chaos seed with a site/op key, mirroring the
/// [`crate::fault::FaultPlan`] seeding idiom so the chaos stream stays
/// decorrelated from the realization and protocol-fault streams.
fn mix(seed: u64, key: u64) -> u64 {
    let x = (key ^ seed.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(x ^ 0xC0A5_C0A5)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_injects_nothing() {
        let chaos = ChaosConfig::none();
        assert!(chaos.is_none());
        for op in 0..1000 {
            assert_eq!(chaos.io_fault("checkpoint", op), None);
        }
        for net in 0..50 {
            assert_eq!(chaos.worker_fault(net), None);
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = ChaosConfig {
            seed: 1,
            ..ChaosConfig::scaled(1.0)
        };
        let b = ChaosConfig {
            seed: 1,
            ..ChaosConfig::scaled(1.0)
        };
        let c = ChaosConfig {
            seed: 2,
            ..ChaosConfig::scaled(1.0)
        };
        let faults = |p: &ChaosConfig| -> Vec<Option<IoFault>> {
            (0..500).map(|op| p.io_fault("progress", op)).collect()
        };
        assert_eq!(faults(&a), faults(&b));
        assert_ne!(faults(&a), faults(&c));
    }

    #[test]
    fn sites_get_independent_streams() {
        let chaos = ChaosConfig {
            seed: 9,
            ..ChaosConfig::scaled(1.0)
        };
        let ckpt: Vec<_> = (0..500)
            .map(|op| chaos.io_fault("checkpoint", op))
            .collect();
        let trace: Vec<_> = (0..500).map(|op| chaos.io_fault("trace", op)).collect();
        assert_ne!(ckpt, trace);
    }

    #[test]
    fn full_probability_always_faults() {
        let chaos = ChaosConfig {
            disk_full: 1.0,
            ..ChaosConfig::none()
        };
        for op in 0..100 {
            assert_eq!(chaos.io_fault("x", op), Some(IoFault::DiskFull));
        }
        let chaos = ChaosConfig {
            worker_panic: 1.0,
            ..ChaosConfig::none()
        };
        for net in 0..20 {
            assert_eq!(chaos.worker_fault(net), Some(WorkerFault::Panic));
        }
    }

    #[test]
    fn scaled_rates_are_plausible() {
        let chaos = ChaosConfig {
            seed: 3,
            ..ChaosConfig::scaled(1.0)
        };
        let n = 20_000u64;
        let injected = (0..n)
            .filter(|&op| chaos.io_fault("s", op).is_some())
            .count();
        let rate = injected as f64 / n as f64;
        // disk 0.05 + eintr 0.10 + torn 0.05 = 0.20 expected.
        assert!((0.15..0.25).contains(&rate), "rate {rate}");
    }

    #[test]
    fn scaled_zero_is_none() {
        assert!(ChaosConfig::scaled(0.0).is_none());
        assert_eq!(ChaosConfig::scaled(0.0), ChaosConfig::none());
    }

    #[test]
    fn parse_bare_float_scales() {
        let parsed = ChaosConfig::parse("0.5").unwrap();
        assert_eq!(parsed, ChaosConfig::scaled(0.5));
        assert!(ChaosConfig::parse("1.5").is_err());
    }

    #[test]
    fn parse_key_value_tokens() {
        let parsed = ChaosConfig::parse("torn=0.2,panic=0.05,stall-ms=10,kill-after=3,seed=7")
            .expect("valid spec");
        assert_eq!(parsed.torn_write, 0.2);
        assert_eq!(parsed.worker_panic, 0.05);
        assert_eq!(parsed.stall_ms, 10);
        assert_eq!(parsed.kill_after_appends, Some(3));
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.disk_full, 0.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChaosConfig::parse("").is_err());
        assert!(ChaosConfig::parse("bogus=1").is_err());
        assert!(ChaosConfig::parse("torn").is_err());
        assert!(ChaosConfig::parse("torn=nope").is_err());
        assert!(ChaosConfig::parse("torn=1.5").is_err());
    }

    #[test]
    fn worker_faults_are_keyed_by_network_only() {
        // The draw is keyed by the network only: any schedule of claims
        // across any worker count sees the same faults. The pinned
        // pattern keeps every recorded chaos schedule as it was.
        let chaos = ChaosConfig {
            worker_panic: 0.3,
            worker_stall: 0.3,
            seed: 11,
            ..ChaosConfig::none()
        };
        let pattern: String = (0..30)
            .map(|net| match chaos.worker_fault(net) {
                Some(WorkerFault::Panic) => 'P',
                Some(WorkerFault::Stall(_)) => 'S',
                None => '.',
            })
            .collect();
        assert_eq!(pattern, "P....S.P.S.PSPPSSPSS.S...S..P.");
    }

    #[test]
    fn kill_after_alone_is_chaos() {
        let chaos = ChaosConfig {
            kill_after_appends: Some(5),
            ..ChaosConfig::none()
        };
        assert!(!chaos.is_none());
    }
}
