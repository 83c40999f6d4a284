//! # osn-graph
//!
//! Undirected graph substrate for the ACCU reproduction (*Adaptive
//! Crawling with Cautious Users*, ICDCS 2019): compact CSR storage,
//! random-graph generators that stand in for the paper's SNAP datasets,
//! the graph algorithms the crawling policies need (PageRank, degrees,
//! mutual-friend counting, clustering), and SNAP-format edge-list I/O.
//!
//! The crate is deliberately self-contained — no graph library
//! dependencies — and optimized for the access patterns of the ACCU
//! simulator: sorted adjacency (binary-search edge queries, linear-merge
//! common-neighbor counts) and dense [`EdgeId`]s so per-edge attributes
//! like link-existence probabilities live in flat arrays.
//!
//! ## Quick start
//!
//! ```
//! use osn_graph::{algo, generators, GraphBuilder, NodeId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Build by hand...
//! let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (2, 0)])?;
//! assert_eq!(algo::mutual_friend_count(&g, NodeId::new(0), NodeId::new(1)), 1);
//!
//! // ...or generate a social-network stand-in.
//! let mut rng = StdRng::seed_from_u64(42);
//! let social = generators::barabasi_albert(1_000, 8, &mut rng)?;
//! let pr = algo::pagerank(&social, &algo::PageRankConfig::new());
//! assert_eq!(pr.len(), 1_000);
//! # Ok::<(), osn_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod algo;
mod builder;
mod error;
pub mod generators;
mod graph;
pub mod io;
mod node;
pub mod sampling;

pub use builder::GraphBuilder;
pub use error::{GraphError, IoError};
pub use graph::{EdgeId, Graph};
pub use node::{Edge, NodeId};
