//! Scale-tier benchmark: generate → protocol → episodes at 10⁵–10⁷
//! nodes.
//!
//! For each requested node count the sweep:
//!
//! 1. **generates** a BA graph (timed as `build_ms`),
//! 2. applies the paper protocol and runs ABM episodes one at a time in
//!    one reused [`EpisodeScratch`] on one thread, reporting
//!    `eps_per_sec`, `ns_per_select` (from a separate instrumented
//!    pass, as in `bench_engine`), steady-state `allocs_per_episode`,
//!    and the process peak RSS.
//!
//! Each tier appends one schema-stamped line to `BENCH_trajectory.jsonl`
//! (next to `--out`), carrying the host context (`cores`, `workers`) so
//! entries from differently-sized machines are never read as
//! like-for-like. A snapshot of all tiers lands in `--out`
//! (`BENCH_scale.json`).
//!
//! ```text
//! scale_sweep [--nodes 100000,1000000] [--degree 8] [--budget 50]
//!             [--episodes 4] [--seed 11] [--out BENCH_scale.json]
//!             [--assert-zero-alloc]
//! ```
//!
//! `--assert-zero-alloc` (the CI gate) exits non-zero if any
//! steady-state episode touches the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use accu_bench::{git_revision, host_cores, peak_rss_mib, utc_date};
use accu_core::policy::{Abm, AbmWeights};
use accu_core::{
    run_attack_episode, sim_metrics, AccuInstance, EpisodeScratch, FaultPlan, RetryPolicy,
};
use accu_datasets::{apply_protocol, ProtocolConfig};
use accu_experiments::analysis::TRAJECTORY_SCHEMA;
use accu_telemetry::Recorder;
use osn_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pass-through allocator that counts allocations while armed.
struct CountingAlloc;

static ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

use std::sync::atomic::Ordering;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct SweepConfig {
    nodes: Vec<usize>,
    degree: usize,
    budget: usize,
    episodes: usize,
    seed: u64,
    out: String,
    assert_zero_alloc: bool,
}

struct TierResult {
    nodes: usize,
    edges: usize,
    build_ms: f64,
    eps_per_sec: f64,
    ns_per_select: f64,
    allocs_per_episode: f64,
    total_benefit: f64,
    peak_rss_mib: f64,
}

fn fail(msg: &str) -> ! {
    eprintln!("scale_sweep: {msg}");
    std::process::exit(2);
}

fn parse_flags() -> SweepConfig {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = SweepConfig {
        nodes: vec![100_000, 1_000_000],
        degree: 8,
        budget: 50,
        episodes: 4,
        seed: 11,
        out: "BENCH_scale.json".to_string(),
        assert_zero_alloc: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--nodes" => {
                cfg.nodes = take("--nodes")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| fail(&format!("bad --nodes element {s:?}")))
                    })
                    .collect();
                if cfg.nodes.is_empty() {
                    fail("--nodes list is empty");
                }
            }
            "--degree" => {
                cfg.degree = take("--degree")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --degree"))
            }
            "--budget" => {
                cfg.budget = take("--budget")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --budget"))
            }
            "--episodes" => {
                cfg.episodes = take("--episodes")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --episodes"))
            }
            "--seed" => {
                cfg.seed = take("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --seed"))
            }
            "--out" => cfg.out = take("--out"),
            "--assert-zero-alloc" => cfg.assert_zero_alloc = true,
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if cfg.episodes == 0 || cfg.budget == 0 {
        fail("--episodes and --budget must be positive");
    }
    cfg
}

/// Builds the tier's instance from its graph: paper protocol,
/// deterministic per-tier stream.
fn tier_instance(graph: Graph, seed: u64) -> AccuInstance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_1234_8765);
    apply_protocol(graph, &ProtocolConfig::default(), &mut rng)
        .unwrap_or_else(|e| fail(&format!("protocol failed: {e}")))
}

/// One pass over `seeds`, one episode per seed sampled into the shared
/// scratch, the outcome benefits summed as the determinism witness.
/// Seeds are pre-drawn by the caller so the armed (allocation-counting)
/// pass touches no heap.
fn run_pass(
    instance: &AccuInstance,
    cfg: &SweepConfig,
    seeds: &[u64],
    scratch: &mut EpisodeScratch,
    policy: &mut Abm,
    recorder: &Recorder,
) -> (f64, std::time::Duration) {
    let plan = FaultPlan::none();
    let retry = RetryPolicy::give_up();
    let mut total = 0.0f64;
    let start = Instant::now();
    for &seed in seeds {
        scratch.prepare(instance);
        scratch
            .realization
            .sample_into(instance, &mut StdRng::seed_from_u64(seed));
        total += run_attack_episode(
            instance, policy, cfg.budget, &plan, &retry, recorder, scratch,
        )
        .total_benefit;
    }
    (total, start.elapsed())
}

fn run_tier(cfg: &SweepConfig, nodes: usize) -> TierResult {
    println!("--- tier: {nodes} nodes (BA, m = {}) ---", cfg.degree);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let t0 = Instant::now();
    let graph = generators::barabasi_albert(nodes, cfg.degree, &mut rng)
        .unwrap_or_else(|e| fail(&format!("generation failed: {e}")));
    let build = t0.elapsed();
    let edges = graph.edge_count();
    println!("  build {:.1} ms", build.as_secs_f64() * 1e3);

    let instance = tier_instance(graph, cfg.seed);

    let mut scratch = EpisodeScratch::new();
    let mut policy = Abm::new(AbmWeights::balanced());
    let disabled = Recorder::disabled();
    let seeds: Vec<u64> = {
        use rand::Rng;
        let mut seed_rng = StdRng::seed_from_u64(cfg.seed);
        (0..cfg.episodes).map(|_| seed_rng.gen()).collect()
    };

    // Warmup: size the scratch and the policy's per-instance caches.
    run_pass(&instance, cfg, &seeds, &mut scratch, &mut policy, &disabled);

    // Throughput pass, with the counting allocator armed — a warmed
    // scratch must run allocation-free.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let (benefit, elapsed) = run_pass(&instance, cfg, &seeds, &mut scratch, &mut policy, &disabled);
    ARMED.store(false, Ordering::SeqCst);
    let allocs_per_episode = ALLOCS.load(Ordering::SeqCst) as f64 / cfg.episodes as f64;
    let eps_per_sec = cfg.episodes as f64 / elapsed.as_secs_f64();

    // Instrumented pass for select latency (identical seeds; a live
    // recorder adds clock reads, so it gets its own pass).
    let enabled = Recorder::enabled();
    let (benefit2, _) = run_pass(&instance, cfg, &seeds, &mut scratch, &mut policy, &enabled);
    assert_eq!(
        benefit.to_bits(),
        benefit2.to_bits(),
        "same seeds must reproduce the same total benefit"
    );
    let snap = enabled.snapshot("scale_sweep").expect("enabled recorder");
    let ns_per_select = snap
        .histogram(sim_metrics::SELECT_NS)
        .map(|h| h.mean)
        .unwrap_or(f64::NAN);

    let rss = peak_rss_mib().unwrap_or(f64::NAN);
    println!(
        "  {eps_per_sec:.3} eps/s ({} episodes, k = {}) · {ns_per_select:.1} ns/select \
         · {allocs_per_episode:.3} allocs/episode · peak RSS {rss:.0} MiB",
        cfg.episodes, cfg.budget,
    );

    TierResult {
        nodes,
        edges,
        build_ms: build.as_secs_f64() * 1e3,
        eps_per_sec,
        ns_per_select,
        allocs_per_episode,
        total_benefit: benefit,
        peak_rss_mib: rss,
    }
}

fn tier_json(cfg: &SweepConfig, t: &TierResult, indent: &str) -> String {
    format!(
        "{indent}{{\n\
         {indent}  \"fixture\": \"ba_{}_d{}/abm_balanced\",\n\
         {indent}  \"nodes\": {},\n\
         {indent}  \"edges\": {},\n\
         {indent}  \"budget\": {},\n\
         {indent}  \"episodes\": {},\n\
         {indent}  \"build_ms\": {:.1},\n\
         {indent}  \"eps_per_sec\": {:.3},\n\
         {indent}  \"ns_per_select\": {:.1},\n\
         {indent}  \"allocs_per_episode\": {:.3},\n\
         {indent}  \"total_benefit\": {:.1},\n\
         {indent}  \"peak_rss_mib\": {:.1}\n\
         {indent}}}",
        t.nodes,
        cfg.degree,
        t.nodes,
        t.edges,
        cfg.budget,
        cfg.episodes,
        t.build_ms,
        t.eps_per_sec,
        t.ns_per_select,
        t.allocs_per_episode,
        t.total_benefit,
        t.peak_rss_mib,
    )
}

/// Appends one schema-stamped line per tier to the trajectory log next
/// to `--out`, carrying the host context. Best-effort, like
/// `bench_engine`: a read-only checkout must not fail the sweep.
fn append_trajectory(cfg: &SweepConfig, t: &TierResult, status: &str) {
    let path = Path::new(&cfg.out)
        .parent()
        .unwrap_or_else(|| Path::new(""))
        .join("BENCH_trajectory.jsonl");
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"schema\":{TRAJECTORY_SCHEMA},\"git\":\"{}\",\"date\":\"{}\",\
         \"bench\":\"scale\",\"fixture\":\"ba_{}_d{}/abm_balanced\",\
         \"cores\":{},\"workers\":1,\"nodes\":{},\"edges\":{},\
         \"budget\":{},\"episodes\":{},\"build_ms\":{:.1},\
         \"eps_per_sec\":{:.3},\"ns_per_select\":{:.1},\"allocs_per_episode\":{:.3},\
         \"total_benefit\":{:.1},\"peak_rss_mib\":{:.1},\"status\":\"{status}\"}}\n",
        git_revision(),
        utc_date(secs),
        t.nodes,
        cfg.degree,
        host_cores(),
        t.nodes,
        t.edges,
        cfg.budget,
        cfg.episodes,
        t.build_ms,
        t.eps_per_sec,
        t.ns_per_select,
        t.allocs_per_episode,
        t.total_benefit,
        t.peak_rss_mib,
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    match appended {
        Ok(()) => println!("  appended {status} entry to {}", path.display()),
        Err(e) => eprintln!("scale_sweep: cannot append to {}: {e}", path.display()),
    }
}

fn main() {
    let cfg = parse_flags();
    println!(
        "scale sweep: tiers {:?}, BA m = {}, k = {}, {} episodes, {} cores",
        cfg.nodes,
        cfg.degree,
        cfg.budget,
        cfg.episodes,
        host_cores(),
    );
    let mut tiers = Vec::new();
    let mut alloc_violation = false;
    for &nodes in &cfg.nodes {
        let tier = run_tier(&cfg, nodes);
        let leaked = tier.allocs_per_episode > 0.0;
        alloc_violation |= leaked;
        append_trajectory(
            &cfg,
            &tier,
            if leaked && cfg.assert_zero_alloc {
                "fail"
            } else {
                "ok"
            },
        );
        tiers.push(tier);
    }

    let body: Vec<String> = tiers.iter().map(|t| tier_json(&cfg, t, "    ")).collect();
    let snapshot = format!(
        "{{\n  \"bench\": \"scale\",\n  \"cores\": {},\n  \"workers\": 1,\n  \
         \"tiers\": [\n{}\n  ]\n}}\n",
        host_cores(),
        body.join(",\n"),
    );
    match std::fs::write(&cfg.out, &snapshot) {
        Ok(()) => println!("wrote {}", cfg.out),
        Err(e) => eprintln!("scale_sweep: cannot write {}: {e}", cfg.out),
    }

    if cfg.assert_zero_alloc && alloc_violation {
        eprintln!("scale_sweep: FAIL — a steady-state episode allocated (expected 0)");
        std::process::exit(1);
    }
}
