//! Steady-state episodes through the scratch engine must not allocate.
//!
//! The counting allocator lives here rather than in `accu-bench`'s
//! library (which is `#![forbid(unsafe_code)]`); an integration test is
//! its own crate, so the `GlobalAlloc` impl stays quarantined to the
//! test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use accu_core::policy::{Abm, AbmWeights};
use accu_core::{
    run_attack_episode, run_attack_with, AccuInstanceBuilder, AttackOptions, EpisodeScratch,
    FaultPlan, RetryPolicy, UserClass,
};
use accu_telemetry::{Recorder, Tracer};
use osn_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The armed window is process-global, so tests that arm it must not
/// overlap — a parallel test's allocations would be counted too.
static ARM_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_episodes_allocate_nothing() {
    let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(13);
    let g = osn_graph::generators::barabasi_albert(120, 4, &mut rng).unwrap();
    let mut b = AccuInstanceBuilder::new(g);
    for i in 0..120u32 {
        if i % 9 == 2 {
            b = b.user_class(NodeId::new(i), UserClass::cautious(2));
        }
    }
    let instance = b.build().unwrap();

    let mut scratch = EpisodeScratch::new();
    let mut policy = Abm::new(AbmWeights::balanced());
    let plan = FaultPlan::none();
    let retry = RetryPolicy::give_up();
    let recorder = Recorder::disabled();
    let k = 30;

    let episode = |scratch: &mut EpisodeScratch, policy: &mut Abm, seed: u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        scratch.prepare(&instance);
        scratch.realization.sample_into(&instance, &mut rng);
        run_attack_episode(&instance, policy, k, &plan, &retry, &recorder, scratch).total_benefit
    };

    // Warm pass: grow every buffer and per-instance cache to final size.
    let mut seed_rng = StdRng::seed_from_u64(77);
    let warm_seeds: Vec<u64> = (0..20).map(|_| seed_rng.gen()).collect();
    let mut warm_total = 0.0;
    for &s in &warm_seeds {
        warm_total += episode(&mut scratch, &mut policy, s);
    }

    // Measured pass: identical seeds, so buffer high-water marks cannot
    // move — any allocation here is an engine regression.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut measured_total = 0.0;
    for &s in &warm_seeds {
        measured_total += episode(&mut scratch, &mut policy, s);
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        warm_total.to_bits(),
        measured_total.to_bits(),
        "identical seeds must reproduce identical totals"
    );
    assert_eq!(
        allocs, 0,
        "steady-state scratch episodes must not touch the heap"
    );
}

/// The trace layer's disabled path is part of the zero-alloc contract:
/// episodes running through `run_attack_with` with a live
/// tracer whose sampling gate is **closed** must behave exactly like
/// untraced episodes — no events, no heap traffic, identical totals.
/// The hot-path cost of tracing-off is one relaxed atomic load.
#[test]
fn gated_off_traced_episodes_allocate_nothing() {
    let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(29);
    let g = osn_graph::generators::barabasi_albert(120, 4, &mut rng).unwrap();
    let mut b = AccuInstanceBuilder::new(g);
    for i in 0..120u32 {
        if i % 9 == 2 {
            b = b.user_class(NodeId::new(i), UserClass::cautious(2));
        }
    }
    let instance = b.build().unwrap();

    let mut scratch = EpisodeScratch::new();
    let mut policy = Abm::new(AbmWeights::balanced());
    let k = 30;

    // A real, enabled tracer — but the gate is closed, as it is for
    // every unsampled episode of a `--trace :sample=N` run.
    let tracer = Tracer::enabled();
    let track = tracer.track("worker-0");
    policy.attach_tracer(&track);
    track.set_active(false);
    let opts = AttackOptions {
        track: &track,
        ..AttackOptions::default()
    };

    let episode = |scratch: &mut EpisodeScratch, policy: &mut Abm, seed: u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        scratch.prepare(&instance);
        scratch.realization.sample_into(&instance, &mut rng);
        run_attack_with(&instance, policy, k, &opts, scratch)
            .unwrap()
            .total_benefit
    };

    let mut seed_rng = StdRng::seed_from_u64(91);
    let warm_seeds: Vec<u64> = (0..20).map(|_| seed_rng.gen()).collect();
    let mut warm_total = 0.0;
    for &s in &warm_seeds {
        warm_total += episode(&mut scratch, &mut policy, s);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut measured_total = 0.0;
    for &s in &warm_seeds {
        measured_total += episode(&mut scratch, &mut policy, s);
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        warm_total.to_bits(),
        measured_total.to_bits(),
        "a gated-off tracer must not perturb episode results"
    );
    assert_eq!(
        allocs, 0,
        "the tracing-disabled hot path must not touch the heap"
    );
    assert_eq!(
        tracer.event_count(),
        0,
        "a closed gate must suppress every event"
    );
}
