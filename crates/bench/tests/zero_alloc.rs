//! Steady-state episodes through the scratch engine must not allocate.
//!
//! The counting allocator lives here rather than in `accu-bench`'s
//! library (which is `#![forbid(unsafe_code)]`); an integration test is
//! its own crate, so the `GlobalAlloc` impl stays quarantined to the
//! test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use accu_core::policy::{Abm, AbmWeights, MaxDegree, PageRankPolicy, Policy, Random};
use accu_core::{
    run_attack_episode, run_attack_with, AccuInstance, AccuInstanceBuilder, AttackOptions,
    EpisodeScratch, FaultPlan, RetryPolicy, UserClass,
};
use accu_telemetry::{Recorder, Tracer};
use osn_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are being counted. Per thread,
    /// so the test harness's own threads (reporting a finished test,
    /// say) never count against the test being measured.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while armed.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is armed.
fn note_alloc() {
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

/// Runs `f` with this thread's allocations counted; returns its result
/// and the count.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A 120-node Barabási–Albert instance with every ninth user cautious.
fn instance(seed: u64) -> AccuInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = osn_graph::generators::barabasi_albert(120, 4, &mut rng).unwrap();
    let mut b = AccuInstanceBuilder::new(g);
    for i in 0..120u32 {
        if i % 9 == 2 {
            b = b.user_class(NodeId::new(i), UserClass::cautious(2));
        }
    }
    b.build().unwrap()
}

#[test]
fn steady_state_episodes_allocate_nothing() {
    let instance = instance(13);

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
    let (measured_total, allocs) = count_allocs(|| {
        warm_seeds
            .iter()
            .map(|&s| episode(&mut scratch, &mut policy, s))
            .sum::<f64>()
    });

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
    let instance = instance(29);

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

    let (measured_total, allocs) = count_allocs(|| {
        warm_seeds
            .iter()
            .map(|&s| episode(&mut scratch, &mut policy, s))
            .sum::<f64>()
    });

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

/// The baselines rank (MaxDegree, PageRank) or pool (Random) once per
/// instance, and the engine sizes its per-request buffers on the first
/// episode: every later episode on the instance — fresh seeds, fresh
/// trajectories — allocates nothing.
#[test]
fn baselines_allocate_nothing_after_their_first_episode() {
    let instance = instance(31);
    let plan = FaultPlan::none();
    let retry = RetryPolicy::give_up();
    let recorder = Recorder::disabled();
    let k = 40;
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(MaxDegree::new()),
        Box::new(PageRankPolicy::new()),
        Box::new(Random::new(5)),
    ];
    for mut policy in policies {
        let mut scratch = EpisodeScratch::new();
        let mut seeds = StdRng::seed_from_u64(47);
        let mut episode = |policy: &mut dyn Policy| {
            let mut rng = StdRng::seed_from_u64(seeds.gen());
            scratch.prepare(&instance);
            scratch.realization.sample_into(&instance, &mut rng);
            run_attack_episode(&instance, policy, k, &plan, &retry, &recorder, &mut scratch)
                .requests_sent()
        };
        episode(policy.as_mut());

        let (requests, allocs) =
            count_allocs(|| (0..30).map(|_| episode(policy.as_mut())).sum::<usize>());

        assert_eq!(requests, 30 * k, "{}", policy.name());
        assert_eq!(
            allocs,
            0,
            "{} episodes after the first on an instance must not touch the heap",
            policy.name()
        );
    }
}
