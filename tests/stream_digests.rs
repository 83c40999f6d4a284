//! Pins the random streams behind every experiment network.
//!
//! For each Table I stand-in at quick scale, networks 0–2 are derived
//! exactly as the experiment runner derives them (one `StdRng` per
//! network, seeded `seed + i·NET_STREAM`, generation then protocol on
//! the same stream). The test hashes the canonical edge list, the bits
//! of every protocol edge probability and the cautious set, and
//! compares them with digests recorded from the generator code. A
//! change to a generator, the graph builder's canonical edge order or
//! the protocol's draws shows up here before it reaches a figure CSV.

use accu::datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
use accu::EdgeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The runner's per-network stream stride.
const NET_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;
/// The figure binaries' default `--seed`.
const SEED: u64 = 42;

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `(edge list, edge-probability bits, cautious set)` digests of one
/// network.
fn digests(spec: &DatasetSpec, net: u64) -> [u64; 3] {
    let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(net.wrapping_mul(NET_STREAM)));
    let graph = spec.generate(&mut rng).expect("quick stand-ins generate");
    let instance =
        apply_protocol(graph, &ProtocolConfig::default(), &mut rng).expect("protocol applies");
    let (mut edges, mut probs, mut cautious) = (Fnv::new(), Fnv::new(), Fnv::new());
    let g = instance.graph();
    edges.word(g.node_count() as u64);
    for e in g.edges() {
        edges.word(u64::from(e.lo().as_u32()) << 32 | u64::from(e.hi().as_u32()));
    }
    for i in 0..g.edge_count() {
        probs.word(instance.edge_probability(EdgeId::from(i)).to_bits());
    }
    for v in instance.cautious_users() {
        cautious.word(u64::from(v.as_u32()));
    }
    [edges.0, probs.0, cautious.0]
}

#[test]
fn quick_networks_keep_their_streams() {
    // Quick-mode down-scaling per dataset, as the figure binaries
    // apply it (`ExperimentScale::default_graph_scale`).
    let quick = |spec: DatasetSpec| {
        let factor = match spec.name() {
            "Slashdot" | "Twitter" => 0.05,
            "DBLP" => 0.02,
            _ => 1.0,
        };
        spec.scaled(factor)
    };
    let expected: [(&str, [[u64; 3]; 3]); 4] = [
        (
            "Facebook",
            [
                [
                    0x9482_b2b4_b744_8f4a,
                    0x12cc_7032_d38e_ade5,
                    0xe151_d0b1_4668_bc81,
                ],
                [
                    0xf9bd_da58_7bb3_ec75,
                    0x8474_0237_f1f0_f25c,
                    0x042f_43ef_11ea_c773,
                ],
                [
                    0x40c8_2f82_b0d9_3161,
                    0x9caa_dfc5_8c5c_dfa2,
                    0x5294_cc95_23fc_5fda,
                ],
            ],
        ),
        (
            "Slashdot",
            [
                [
                    0x6422_f71b_7e30_8074,
                    0xa958_1033_3680_7438,
                    0x4b09_224a_1403_422f,
                ],
                [
                    0x064c_86a2_c829_9b32,
                    0x5d40_28e0_da50_96b1,
                    0x11c1_46a0_237a_2d93,
                ],
                [
                    0x22d8_1e42_fed5_a671,
                    0xcb68_d99b_f7fc_140e,
                    0x8464_4e8e_6eaf_cf4b,
                ],
            ],
        ),
        (
            "Twitter",
            [
                [
                    0x8af5_46ac_7ae1_132b,
                    0xa171_bfdf_5d8d_d4a4,
                    0x57f4_1eb5_7de0_cbc4,
                ],
                [
                    0xab7b_7e51_d525_2f5c,
                    0xa2e1_1fa6_a750_ce03,
                    0x4d12_d525_3743_d4d0,
                ],
                [
                    0x581f_4fed_97d4_1c5b,
                    0x58a0_28ba_b9de_fa93,
                    0xe477_4665_36ba_61cb,
                ],
            ],
        ),
        (
            "DBLP",
            [
                [
                    0xf887_68e3_4054_100f,
                    0x7ff3_5914_ed17_3ad9,
                    0x2524_d6f4_538c_bb58,
                ],
                [
                    0x4e59_edf5_9140_69fa,
                    0x9eb8_ed06_7755_7c7b,
                    0x680c_39e2_1bb7_c5b5,
                ],
                [
                    0x5624_4bec_fd8c_3702,
                    0xb212_4c94_1c6d_842d,
                    0x277c_678d_b77d_9251,
                ],
            ],
        ),
    ];
    let got: Vec<(String, [[u64; 3]; 3])> = DatasetSpec::all_paper_datasets()
        .into_iter()
        .map(|spec| {
            let spec = quick(spec);
            let nets = [0, 1, 2].map(|net| digests(&spec, net));
            (spec.name().to_string(), nets)
        })
        .collect();
    let want: Vec<(String, [[u64; 3]; 3])> = expected
        .iter()
        .map(|(name, nets)| (name.to_string(), *nets))
        .collect();
    assert_eq!(
        got, want,
        "per network: [edges, probabilities, cautious]; got {got:#018x?}"
    );
}
