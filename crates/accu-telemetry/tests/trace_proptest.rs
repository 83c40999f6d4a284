//! Property tests for the trace layer: **any** emission sequence —
//! nested spans, instants, sampling-gate flips mid-span, multiple
//! tracks, ring capacities small enough to force overwrite — must
//! export as structurally valid Chrome trace JSON (balanced begin/end
//! per track) and as a causal log whose every line is a valid event.

use accu_telemetry::{check_events, validate_chrome_trace, TraceSpan, TraceValue, Tracer};
use proptest::prelude::*;

/// One scripted action against a random track.
#[derive(Debug, Clone)]
enum Op {
    /// Emit an instant with a small payload.
    Instant(usize),
    /// Open a span (pushed on the per-track stack).
    Open(usize),
    /// Close the innermost open span of the track, if any.
    Close(usize),
    /// Flip the track's sampling gate.
    Gate(usize, bool),
}

const SPAN_NAMES: [&str; 4] = ["load", "chunk", "episodes", "fold"];

fn op_strategy(tracks: usize) -> impl Strategy<Value = Op> {
    (0usize..4, 0..tracks, any::<bool>()).prop_map(|(kind, track, on)| match kind {
        0 => Op::Instant(track),
        1 => Op::Open(track),
        2 => Op::Close(track),
        _ => Op::Gate(track, on),
    })
}

/// Runs a script against a fresh tracer and returns it with all spans
/// closed (by drop, exactly as the runner's RAII guards would).
fn run_script(ops: &[Op], tracks: usize, capacity: usize, sample: u64) -> Tracer {
    let tracer = Tracer::with_config(sample, capacity);
    let handles: Vec<_> = (0..tracks)
        .map(|t| tracer.track(&format!("worker-{t}")))
        .collect();
    let mut stacks: Vec<Vec<TraceSpan>> = (0..tracks).map(|_| Vec::new()).collect();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Instant(t) => handles[t].instant(
                "request",
                &[
                    ("step", TraceValue::U64(i as u64)),
                    ("gain", TraceValue::F64(i as f64 * 0.25)),
                    ("accepted", TraceValue::Bool(i % 2 == 0)),
                ],
            ),
            Op::Open(t) => {
                let name = SPAN_NAMES[stacks[t].len() % SPAN_NAMES.len()];
                stacks[t].push(handles[t].span_with(name, &[("i", TraceValue::U64(i as u64))]));
            }
            Op::Close(t) => {
                stacks[t].pop(); // drop emits the end event
            }
            Op::Gate(t, on) => handles[t].set_active(on),
        }
    }
    // Leftover spans unwind in reverse (drop order of the Vec is fine:
    // ends bypass the gate, and the exporter balances per track).
    drop(stacks);
    tracer
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline invariant: whatever the emission sequence and
    /// however small the ring, the Chrome export passes structural
    /// validation — every begin has a matching same-name end per track,
    /// nothing is left open.
    #[test]
    fn any_emission_sequence_exports_balanced_chrome_json(
        ops in proptest::collection::vec(op_strategy(3), 0..120),
        capacity in 1usize..48,
        sample in 1u64..5,
    ) {
        let tracer = run_script(&ops, 3, capacity, sample);
        let chrome = tracer.export_chrome().expect("enabled tracer exports");
        let stats = validate_chrome_trace(&chrome)
            .unwrap_or_else(|e| panic!("invalid chrome export: {e}\n{chrome}"));
        // Worker tracks always get their metadata row.
        prop_assert_eq!(stats.metadata, 3);
    }

    /// Every line of the causal export passes the event validator —
    /// stamped with its track, seq strictly increasing per track — and
    /// the drop markers account for exactly the events the ring
    /// overwrote.
    #[test]
    fn causal_export_lines_are_valid_events(
        ops in proptest::collection::vec(op_strategy(2), 0..100),
        capacity in 1usize..32,
    ) {
        let tracer = run_script(&ops, 2, capacity, 1);
        let causal = tracer.export_causal().expect("enabled tracer exports");
        let read = check_events(&causal)
            .unwrap_or_else(|e| panic!("invalid causal log: {e}\n{causal}"));
        prop_assert_eq!(read.skipped_lines, 0);
        let mut dropped = 0u64;
        for event in &read.events {
            match &event.stamp {
                Some(stamp) => prop_assert!(stamp.track.starts_with("worker-")),
                None => {
                    prop_assert_eq!(event.kind.as_ref(), "trace.dropped");
                    dropped += event
                        .get("dropped")
                        .and_then(TraceValue::as_u64)
                        .expect("dropped count");
                }
            }
        }
        prop_assert_eq!(dropped, tracer.total_dropped());
    }

    /// Sequence numbers in the causal log are strictly increasing per
    /// track (the per-episode replay relies on per-track order).
    #[test]
    fn causal_export_is_ordered_per_track(
        ops in proptest::collection::vec(op_strategy(2), 0..80),
    ) {
        let tracer = run_script(&ops, 2, 1 << 12, 1);
        let causal = tracer.export_causal().expect("enabled tracer exports");
        let read = check_events(&causal).expect("valid causal log");
        let mut last_seq: std::collections::HashMap<&str, u64> = Default::default();
        for stamp in read.events.iter().filter_map(|e| e.stamp.as_ref()) {
            if let Some(prev) = last_seq.insert(&stamp.track, stamp.seq) {
                prop_assert!(prev < stamp.seq, "{} seq {} after {}", stamp.track, stamp.seq, prev);
            }
        }
    }
}
