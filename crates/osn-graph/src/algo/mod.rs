//! Graph algorithms used by the ACCU policies and experiment setup.

mod bfs;
mod centrality;
mod clustering;
mod components;
mod degree;
mod distance;
mod kcore;
mod mutual;
mod pagerank;

pub use bfs::{bfs_distances, bfs_order, UNREACHABLE};
pub use centrality::{betweenness_centrality, closeness_centrality, eigenvector_centrality};
pub use clustering::{global_clustering_coefficient, local_clustering_coefficient, triangle_count};
pub use components::{connected_components, largest_component, ComponentLabels};
pub use degree::{degree_histogram, nodes_with_degree_in, DegreeStats};
pub use distance::{degree_assortativity, double_sweep_diameter, sampled_average_path_length};
pub use kcore::{core_numbers, max_core};
pub use mutual::{mutual_count, mutual_friend_count};
pub use pagerank::{pagerank, PageRankConfig};
