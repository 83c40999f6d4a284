//! Pins the random streams behind every experiment network, and the
//! picks the paper's policies make on them.
//!
//! For each Table I stand-in at quick scale, networks 0–2 are derived
//! exactly as the experiment runner derives them (one `StdRng` per
//! network, seeded `seed + i·NET_STREAM`, generation then protocol on
//! the same stream).
//!
//! `quick_networks_keep_their_streams` hashes the canonical edge list,
//! the bits of every protocol edge probability and the cautious set,
//! and compares them with digests recorded from the generator code. A
//! change to a generator, the graph builder's canonical edge order or
//! the protocol's draws shows up there before it reaches a figure CSV.
//!
//! `quick_networks_keep_their_picks` goes on as the runner does:
//! lenient repair, one episode seed per run drawn from the network
//! stream, and the policy seed `seed + i·POLICY_STREAM`. Each of ABM balanced, PageRank,
//! MaxDegree and Random is instantiated once per network and runs the
//! network's first two episodes at k = 300. The test hashes each
//! policy's ordered request targets and responses, and the bits of each
//! network's PageRank scores, against digests recorded before the
//! selection kernels were last rewritten, so a changed tie-break or
//! score shows up there. Re-record those digests only in a change that
//! means to alter picks.

use accu::core::{repair_instance, RepairMode};
use accu::datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
use accu::graph::algo::{pagerank, PageRankConfig};
use accu::{run_attack_with, AccuInstance, AttackOptions, EdgeId, EpisodeScratch};
use accu_experiments::PolicyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The runner's per-network stream stride.
const NET_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;
/// The runner's per-network policy-seed stride.
const POLICY_STREAM: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// The figure binaries' default `--seed`.
const SEED: u64 = 42;
/// The paper's request budget.
const BUDGET: usize = 300;
/// Episodes hashed per (network, policy).
const EPISODES: usize = 2;

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

/// Network `net`'s instance as the protocol built it, and its stream as
/// the protocol left it.
fn network(spec: &DatasetSpec, net: u64) -> (AccuInstance, StdRng) {
    let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(net.wrapping_mul(NET_STREAM)));
    let graph = spec.generate(&mut rng).expect("quick stand-ins generate");
    let instance =
        apply_protocol(graph, &ProtocolConfig::default(), &mut rng).expect("protocol applies");
    (instance, rng)
}

/// `(edge list, edge-probability bits, cautious set)` digests of one
/// network.
fn stream_digests(spec: &DatasetSpec, net: u64) -> [u64; 3] {
    let (instance, _) = network(spec, net);
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

/// `[PageRank scores, ABM, PageRank, MaxDegree, Random]` digests of one
/// network: each policy's digest hashes, per episode, the number of
/// requests and then every `(target, accepted)` in request order.
fn pick_digests(spec: &DatasetSpec, net: u64) -> [u64; 5] {
    let (instance, mut rng) = network(spec, net);
    let (instance, _) = repair_instance(instance, RepairMode::Lenient).expect("repairable");
    let seeds: Vec<u64> = (0..EPISODES).map(|_| rng.gen()).collect();
    let mut out = [0u64; 5];
    let mut scores = Fnv::new();
    for x in pagerank(instance.graph(), &PageRankConfig::new()) {
        scores.word(x.to_bits());
    }
    out[0] = scores.0;
    let policy_seed = SEED.wrapping_add(net.wrapping_mul(POLICY_STREAM));
    let mut scratch = EpisodeScratch::new();
    for (slot, kind) in out[1..].iter_mut().zip(PolicyKind::paper_lineup()) {
        let mut policy = kind.instantiate(policy_seed);
        let mut picks = Fnv::new();
        for &seed in &seeds {
            scratch.prepare(&instance);
            scratch
                .realization
                .sample_into(&instance, &mut StdRng::seed_from_u64(seed));
            let outcome = run_attack_with(
                &instance,
                policy.as_mut(),
                BUDGET,
                &AttackOptions::default(),
                &mut scratch,
            )
            .expect("exact knowledge cannot mismatch");
            picks.word(outcome.trace.len() as u64);
            for r in &outcome.trace {
                picks.word(u64::from(r.target.as_u32()) << 1 | u64::from(r.accepted));
            }
        }
        *slot = picks.0;
    }
    out
}

/// Computes `digest` for networks 0–2 of every dataset at quick scale
/// (the figure binaries' `ExperimentScale::default_graph_scale`) and
/// compares them with `expected`, in dataset order.
fn assert_quick_digests<const N: usize>(
    expected: [(&str, [[u64; N]; 3]); 4],
    digest: fn(&DatasetSpec, u64) -> [u64; N],
    what: &str,
) {
    let got: Vec<(String, [[u64; N]; 3])> = DatasetSpec::all_paper_datasets()
        .into_iter()
        .map(|spec| {
            let factor = match spec.name() {
                "Slashdot" | "Twitter" => 0.05,
                "DBLP" => 0.02,
                _ => 1.0,
            };
            let spec = spec.scaled(factor);
            let nets = [0, 1, 2].map(|net| digest(&spec, net));
            (spec.name().to_string(), nets)
        })
        .collect();
    let want: Vec<(String, [[u64; N]; 3])> = expected
        .iter()
        .map(|(name, nets)| (name.to_string(), *nets))
        .collect();
    assert_eq!(got, want, "per network: {what}; got {got:#018x?}");
}

#[test]
fn quick_networks_keep_their_streams() {
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
    assert_quick_digests(expected, stream_digests, "[edges, probabilities, cautious]");
}

#[test]
fn quick_networks_keep_their_picks() {
    let expected: [(&str, [[u64; 5]; 3]); 4] = [
        (
            "Facebook",
            [
                [
                    0xd35d_53b0_242c_640c,
                    0x359a_a78a_b9a8_5900,
                    0xad7b_c11b_85ff_fb65,
                    0x1937_c352_93e4_4479,
                    0x988e_19aa_f3db_8b4b,
                ],
                [
                    0x9582_bc40_705f_a15d,
                    0xe879_4df7_e000_4f3c,
                    0x6cf4_b616_7d5e_009d,
                    0xab58_27a5_6b20_1f11,
                    0x3834_6e0e_62fb_b22f,
                ],
                [
                    0xdb61_e613_2260_51d8,
                    0xf311_5e47_721c_cc55,
                    0x9bfd_abd4_1a97_72fc,
                    0x7707_0d4e_91fb_f4f0,
                    0x9daa_827c_07cf_e6ca,
                ],
            ],
        ),
        (
            "Slashdot",
            [
                [
                    0x1e72_3b72_c80e_f7b3,
                    0x72d9_3d9a_8e35_c542,
                    0x70bd_eb30_6878_c790,
                    0x5152_3225_f80b_33d4,
                    0xe1cf_bffd_c41d_6b63,
                ],
                [
                    0xd849_4305_c3d9_25a1,
                    0xd67d_1900_915c_26b9,
                    0xdad8_cb6e_8e54_cfe0,
                    0x7eb0_a4da_2e11_be80,
                    0x9d0d_ec59_0220_59a6,
                ],
                [
                    0x1e24_cb54_cb5d_7af3,
                    0x74a3_e8e0_ede6_29fc,
                    0x3e97_528c_44fa_659c,
                    0x930c_37c3_7175_4ad0,
                    0xd613_ac62_53f0_e002,
                ],
            ],
        ),
        (
            "Twitter",
            [
                [
                    0x3446_87e2_eb2b_b1fa,
                    0xd95f_3e7a_1e92_cc9a,
                    0xd145_0d56_354f_26f4,
                    0x59a2_3e52_2c49_c681,
                    0x281e_2c2d_6d3d_d0f6,
                ],
                [
                    0x07f0_ef98_c0db_06ac,
                    0x8493_7852_4ada_ab2e,
                    0xa9e7_8c3b_246c_8914,
                    0x96a2_4648_8e26_0f75,
                    0xbb73_bde4_bd20_da71,
                ],
                [
                    0x8837_13cd_d49e_99a4,
                    0x880d_7edf_a83d_a7e0,
                    0xbf6b_a1dc_7a8f_79c8,
                    0x3e60_baee_954e_f664,
                    0xe168_10ca_3ad8_c67b,
                ],
            ],
        ),
        (
            "DBLP",
            [
                [
                    0x9160_3bc5_bb23_4de8,
                    0xe668_34e2_81b9_6a5c,
                    0xedda_81b2_f146_15b4,
                    0x0969_f199_3b9d_8885,
                    0xc268_484d_0f86_78db,
                ],
                [
                    0xb9d9_29d0_7b6b_298d,
                    0x7b30_b760_2490_f8fc,
                    0x727b_e1e9_9553_56b8,
                    0xe28c_f303_60b7_3b08,
                    0x61a2_0ccd_134a_2211,
                ],
                [
                    0xa2da_7eb6_1c50_d96f,
                    0xa3f3_68e6_f5b6_0525,
                    0x0829_65ac_188e_fbf5,
                    0x4454_c393_9440_b81c,
                    0x93dc_d122_97f8_2eb7,
                ],
            ],
        ),
    ];
    assert_quick_digests(
        expected,
        pick_digests,
        "[PageRank scores, ABM, PageRank, MaxDegree, Random]",
    );
}
