//! # accu-datasets
//!
//! Dataset layer of the ACCU reproduction: synthetic stand-ins matched to
//! the paper's four SNAP networks (Table I) and the §IV-A experiment
//! protocol (random edge/acceptance probabilities, cautious-user
//! selection from the `[10, 100]` degree band as an independent set,
//! degree-proportional thresholds, and the paper's benefit assignment).
//!
//! ```
//! use accu_datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let graph = DatasetSpec::twitter().scaled(0.02).generate(&mut rng)?;
//! let config = ProtocolConfig::default().scaled_cautious(0.02);
//! let instance = apply_protocol(graph, &config, &mut rng)?;
//! assert!(!instance.cautious_users().is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod fuzz;
mod protocol;
mod snap;
mod spec;

pub use fuzz::{run_fuzz, FuzzConfig, FuzzReport};
pub use protocol::{
    apply_protocol, greedy_independent_set, select_cautious_users, ProtocolConfig, ProtocolError,
};
pub use snap::{load_snap, load_snap_reader, load_snap_sampled};
pub use spec::{DatasetSpec, NetworkKind};
