//! Episode-engine benchmark gate.
//!
//! Measures the zero-allocation Monte-Carlo episode engine on a fixed
//! fixture (the ~1.6k-node Twitter stand-in, ABM balanced, `k = 300`)
//! and reports:
//!
//! * `eps_per_sec` — steady-state episode throughput through
//!   [`accu_core::run_attack_episode`] with a reused `EpisodeScratch`;
//! * `ns_per_select` — mean `Policy::select` latency from the
//!   `sim.select_ns` histogram (measured in a separate instrumented
//!   pass, since an enabled recorder adds per-request clock reads);
//! * `allocs_per_episode` — heap allocations per episode in steady
//!   state, counted by a `#[global_allocator]` wrapper over the same
//!   seeds as the throughput pass (must be 0);
//! * `speedup_vs_head` — `eps_per_sec` over the pre-engine baseline
//!   (17.0 eps/s on the reference container, measured at the commit
//!   before the engine landed).
//!
//! `bench_engine` writes `BENCH_engine.json`; `bench_engine --check`
//! re-measures and exits non-zero if throughput regressed more than
//! `--max-regress` (default 0.25) against the committed file, or if a
//! steady-state episode allocates. Every `--check` run also appends a
//! dated entry to `BENCH_trajectory.jsonl` (next to the committed
//! file), so the perf history stays machine-readable across PRs
//! instead of only the latest snapshot surviving.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use accu_bench::{default_instance, git_revision, host_cores, utc_date};
use accu_core::policy::{Abm, AbmWeights};
use accu_core::{run_attack_episode, sim_metrics, EpisodeScratch, FaultPlan, RetryPolicy};
use accu_experiments::analysis::TRAJECTORY_SCHEMA;
use accu_telemetry::{parse_json, Json, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pass-through allocator that counts allocations while armed.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

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

/// Pre-engine episode throughput on the reference container (episodes
/// per second on this exact fixture at the commit before the engine
/// overhaul). Kept as a constant so `speedup_vs_head` stays comparable
/// across re-measurements on that hardware.
const HEAD_BASELINE_EPS: f64 = 17.0;

const SEED: u64 = 9;
const BUDGET: usize = 300;
const WARMUP_EPISODES: usize = 5;
const MEASURED_EPISODES: usize = 60;

struct Measurement {
    eps_per_sec: f64,
    total_benefit: f64,
    ns_per_select: f64,
    allocs_per_episode: f64,
}

/// Runs `episodes` scratch-engine episodes from a fresh seed stream,
/// returning the summed benefit (determinism witness) and elapsed time.
fn run_pass(
    instance: &accu_core::AccuInstance,
    episodes: usize,
    recorder: &Recorder,
    scratch: &mut EpisodeScratch,
    policy: &mut Abm,
) -> (f64, std::time::Duration) {
    let plan = FaultPlan::none();
    let retry = RetryPolicy::give_up();
    let mut seed_rng = StdRng::seed_from_u64(SEED);
    let mut total = 0.0f64;
    let start = Instant::now();
    for _ in 0..episodes {
        let s: u64 = seed_rng.gen();
        let mut rng = StdRng::seed_from_u64(s);
        scratch.prepare(instance);
        scratch.realization.sample_into(instance, &mut rng);
        total += run_attack_episode(instance, policy, BUDGET, &plan, &retry, recorder, scratch)
            .total_benefit;
    }
    (total, start.elapsed())
}

fn measure() -> Measurement {
    let instance = default_instance();
    let mut scratch = EpisodeScratch::new();
    let mut policy = Abm::new(AbmWeights::balanced());
    let disabled = Recorder::disabled();

    // Warmup: size the scratch and the policy's per-instance caches.
    run_pass(
        &instance,
        WARMUP_EPISODES,
        &disabled,
        &mut scratch,
        &mut policy,
    );

    // Pass 1: throughput (no instrumentation).
    let (benefit, elapsed) = run_pass(
        &instance,
        MEASURED_EPISODES,
        &disabled,
        &mut scratch,
        &mut policy,
    );
    let eps_per_sec = MEASURED_EPISODES as f64 / elapsed.as_secs_f64();

    // Pass 2: identical seeds with the counting allocator armed —
    // steady state, so the engine must not touch the heap.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let (benefit2, _) = run_pass(
        &instance,
        MEASURED_EPISODES,
        &disabled,
        &mut scratch,
        &mut policy,
    );
    ARMED.store(false, Ordering::SeqCst);
    let allocs_per_episode = ALLOCS.load(Ordering::SeqCst) as f64 / MEASURED_EPISODES as f64;
    assert_eq!(
        benefit.to_bits(),
        benefit2.to_bits(),
        "same seeds must reproduce the same total benefit"
    );

    // Pass 3: per-select latency via the simulator's own histogram.
    let enabled = Recorder::enabled();
    run_pass(
        &instance,
        MEASURED_EPISODES,
        &enabled,
        &mut scratch,
        &mut policy,
    );
    let snap = enabled.snapshot("bench_engine").expect("enabled recorder");
    let ns_per_select = snap
        .histogram(sim_metrics::SELECT_NS)
        .map(|h| h.mean)
        .unwrap_or(f64::NAN);

    Measurement {
        eps_per_sec,
        total_benefit: benefit,
        ns_per_select,
        allocs_per_episode,
    }
}

fn render_json(m: &Measurement) -> String {
    format!(
        "{{\n  \"bench\": \"engine\",\n  \"fixture\": \"twitter_0.02/abm_balanced\",\n  \
         \"budget\": {BUDGET},\n  \"episodes\": {MEASURED_EPISODES},\n  \
         \"eps_per_sec\": {:.2},\n  \"ns_per_select\": {:.1},\n  \
         \"allocs_per_episode\": {:.3},\n  \"total_benefit\": {:.1},\n  \
         \"baseline_eps_per_sec\": {HEAD_BASELINE_EPS:.1},\n  \"speedup_vs_head\": {:.2}\n}}\n",
        m.eps_per_sec,
        m.ns_per_select,
        m.allocs_per_episode,
        m.total_benefit,
        m.eps_per_sec / HEAD_BASELINE_EPS,
    )
}

/// Appends one dated line to the trajectory log kept next to the
/// committed snapshot. Best-effort: a read-only checkout must not turn
/// a passing bench check into a failure.
///
/// Entries are stamped with the trajectory schema version
/// ([`TRAJECTORY_SCHEMA`]) and the producing git revision, so
/// `bench_report` can tell comparable entries from foreign ones and
/// trace any number back to its commit.
fn append_trajectory(out_path: &str, m: &Measurement, status: &str) {
    let path = Path::new(out_path)
        .parent()
        .unwrap_or_else(|| Path::new(""))
        .join("BENCH_trajectory.jsonl");
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"schema\":{TRAJECTORY_SCHEMA},\"git\":\"{}\",\"date\":\"{}\",\
         \"bench\":\"engine\",\"fixture\":\"twitter_0.02/abm_balanced\",\
         \"cores\":{},\"workers\":1,\
         \"budget\":{BUDGET},\"episodes\":{MEASURED_EPISODES},\"eps_per_sec\":{:.2},\
         \"ns_per_select\":{:.1},\"allocs_per_episode\":{:.3},\"total_benefit\":{:.1},\
         \"speedup_vs_head\":{:.2},\"status\":\"{status}\"}}\n",
        git_revision(),
        utc_date(secs),
        host_cores(),
        m.eps_per_sec,
        m.ns_per_select,
        m.allocs_per_episode,
        m.total_benefit,
        m.eps_per_sec / HEAD_BASELINE_EPS,
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    match appended {
        Ok(()) => println!("appended {status} entry to {}", path.display()),
        Err(e) => eprintln!("bench-check: cannot append to {}: {e}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let mut out_path = "BENCH_engine.json".to_string();
    let mut max_regress = 0.25f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out PATH").clone(),
            "--max-regress" => {
                max_regress = it
                    .next()
                    .expect("--max-regress FRACTION")
                    .parse()
                    .expect("numeric --max-regress")
            }
            _ => {}
        }
    }

    let m = measure();
    println!(
        "engine bench: {:.2} eps/s ({MEASURED_EPISODES} episodes, k={BUDGET}), \
         {:.1} ns/select, {:.3} allocs/episode, total_benefit {:.1}, \
         {:.2}x vs pre-engine baseline",
        m.eps_per_sec,
        m.ns_per_select,
        m.allocs_per_episode,
        m.total_benefit,
        m.eps_per_sec / HEAD_BASELINE_EPS,
    );

    if check {
        let committed = std::fs::read_to_string(&out_path).unwrap_or_else(|e| {
            eprintln!("bench-check: cannot read {out_path}: {e}");
            std::process::exit(1);
        });
        let committed = parse_json(&committed).unwrap_or_else(|e| {
            eprintln!("bench-check: {out_path} is not valid JSON: {e}");
            std::process::exit(1);
        });
        let field = |key: &str| committed.get(key).and_then(Json::as_f64);
        let committed_eps = field("eps_per_sec").unwrap_or_else(|| {
            eprintln!("bench-check: no numeric eps_per_sec in {out_path}");
            std::process::exit(1);
        });
        let mut failed = false;
        if let Some(b) = field("total_benefit") {
            if (b - m.total_benefit).abs() > 0.5 {
                eprintln!(
                    "bench-check: FAIL — total_benefit {:.1} != committed {b:.1} \
                     (engine output changed)",
                    m.total_benefit
                );
                failed = true;
            }
        }
        if m.allocs_per_episode > 0.0 {
            eprintln!(
                "bench-check: FAIL — {:.3} allocs/episode in steady state (expected 0)",
                m.allocs_per_episode
            );
            failed = true;
        }
        let floor = committed_eps * (1.0 - max_regress);
        if m.eps_per_sec < floor {
            eprintln!(
                "bench-check: FAIL — {:.2} eps/s is below {floor:.2} \
                 (committed {committed_eps:.2} minus {:.0}% tolerance)",
                m.eps_per_sec,
                max_regress * 100.0
            );
            failed = true;
        }
        append_trajectory(&out_path, &m, if failed { "fail" } else { "ok" });
        if failed {
            std::process::exit(1);
        }
        println!(
            "bench-check: OK ({:.2} eps/s vs committed {committed_eps:.2}, \
             tolerance {:.0}%)",
            m.eps_per_sec,
            max_regress * 100.0
        );
    } else {
        std::fs::write(&out_path, render_json(&m)).unwrap_or_else(|e| {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {out_path}");
    }
}
