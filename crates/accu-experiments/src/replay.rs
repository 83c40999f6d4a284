//! Causal-log replay: reconstructing episodes from a JSONL trace.
//!
//! The runner's `--trace` flag exports two files: a Chrome trace for
//! Perfetto and a JSONL *causal log* holding the same events as event
//! lines. This module walks the events [`read_events`] or
//! [`check_events`] returns into typed [`CausalEpisode`]s, renders a
//! human-readable narrative of each sampled episode, and — the
//! correctness check the `trace_explain` binary is built on — verifies
//! that the traced per-request benefit stream reconstructs every
//! episode's recorded `total_benefit` **bit-exactly** (floats travel
//! through the log via shortest round-trip formatting, so equality is
//! `to_bits()` equality, not an epsilon).
//!
//! [`read_events`]: accu_telemetry::read_events
//! [`check_events`]: accu_telemetry::check_events

use std::fmt::Write as _;

use accu_telemetry::{Event, TraceValue};

/// One `request` event: a resolved friend request inside an episode.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEvent {
    /// 0-based request index within the episode.
    pub step: u64,
    /// Target node index.
    pub target: u64,
    /// Whether the target is a cautious user.
    pub cautious: bool,
    /// Cautious threshold `θ_v` (`None` for reckless users).
    pub theta: Option<u64>,
    /// Mutual friends with the attacker at request time.
    pub mutual: u64,
    /// Whether the request was accepted.
    pub accepted: bool,
    /// Whether the platform fault layer hit this request.
    pub faulted: bool,
    /// Marginal benefit of this request.
    pub gain: f64,
    /// Cumulative benefit after this request (bit-exact simulator
    /// state).
    pub cum_benefit: f64,
}

/// One ABM `decide` event: the policy's full potential breakdown for
/// the node it picked.
#[derive(Debug, Clone, PartialEq)]
pub struct DecideEvent {
    /// Picked node index.
    pub picked: u64,
    /// Combined potential `q·(w_D·P_D + w_I·P_I)` of the pick.
    pub potential: f64,
    /// Acceptance belief `q(u)`.
    pub q: f64,
    /// Direct-benefit term `P_D`.
    pub p_d: f64,
    /// Indirect (cautious-unlock) term `P_I`.
    pub p_i: f64,
    /// Direct weight `w_D`.
    pub w_d: f64,
    /// Indirect weight `w_I`.
    pub w_i: f64,
    /// Best non-picked candidate (`None` when the pick was the only
    /// candidate).
    pub runner_up: Option<u64>,
    /// Potential margin over the runner-up (the pick's own potential
    /// when there was none).
    pub margin: f64,
}

/// Any event recorded between an episode's begin and end markers, in
/// emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum EpisodeEvent {
    /// A resolved friend request (simulator layer).
    Request(RequestEvent),
    /// An ABM pick with its potential breakdown (policy layer).
    Decide(DecideEvent),
    /// A cautious user's mutual-friend count advanced.
    CautiousProgress {
        /// The cautious node.
        node: u64,
        /// Its mutual-friend count with the attacker now.
        mutual: u64,
        /// Its acceptance threshold `θ_v`.
        theta: u64,
    },
    /// The ABM absorbed an observation, touching `dirty` candidates.
    Observe {
        /// The observed request's target.
        target: u64,
        /// Whether it accepted.
        accepted: bool,
        /// Candidates whose potential the observation may have raised,
        /// each compared with its tree key once.
        dirty: u64,
    },
}

/// The `episode_end` summary marker.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeEnd {
    /// Final total benefit `f(π, φ)` — bit-exact simulator state.
    pub total_benefit: f64,
    /// Requests sent.
    pub requests: u64,
    /// Friends gained.
    pub friends: u64,
    /// Cautious users among the friends.
    pub cautious_friends: u64,
    /// Platform faults observed.
    pub faults: u64,
}

/// One fully-delimited sampled episode from a causal log.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalEpisode {
    /// Track (worker) name the episode ran on.
    pub track: String,
    /// Network index.
    pub net: u64,
    /// Episode index within the network.
    pub ep: u64,
    /// Run-global episode index (the sampling key).
    pub global_ep: u64,
    /// Policy display name.
    pub policy: String,
    /// Dataset name.
    pub dataset: String,
    /// Request budget `k`.
    pub budget: u64,
    /// Episode RNG seed (kept as a string: u64 seeds do not survive
    /// JSON doubles).
    pub seed: String,
    /// Everything between begin and end, in order.
    pub events: Vec<EpisodeEvent>,
    /// The end marker.
    pub end: EpisodeEnd,
}

/// A parsed causal log: complete episodes plus bookkeeping about what
/// the ring buffer lost.
#[derive(Debug, Clone, Default)]
pub struct CausalLog {
    /// Complete (begin..end) episodes, in file order.
    pub episodes: Vec<CausalEpisode>,
    /// Events overwritten by ring wraparound, summed over tracks.
    pub dropped_events: u64,
    /// Episodes whose begin or end marker was lost (ring overwrite or a
    /// worker dying mid-episode); they are excluded from `episodes`.
    pub incomplete_episodes: usize,
}

/// The argument `key` of `event`, read with `get`.
fn field<'a, T>(
    event: &'a Event,
    key: &str,
    get: fn(&'a TraceValue) -> Option<T>,
) -> Result<T, String> {
    event.get(key).and_then(get).ok_or_else(|| {
        let seq = event.stamp.as_ref().map_or(0, |s| s.seq);
        format!(
            "{} event (seq {seq}): missing or mistyped field {key:?}",
            event.kind
        )
    })
}

impl CausalLog {
    /// Walks a causal log's events (as [`read_events`] or
    /// [`check_events`] return them) into typed episodes.
    ///
    /// Only complete episodes — an `episode_begin` followed by its
    /// `episode_end` on the same track — are kept; fragments truncated
    /// by ring-buffer overwrite are counted in
    /// [`incomplete_episodes`](CausalLog::incomplete_episodes) instead.
    /// Events without a track stamp (progress events in a concatenated
    /// file) are skipped, as are span markers.
    ///
    /// [`read_events`]: accu_telemetry::read_events
    /// [`check_events`]: accu_telemetry::check_events
    ///
    /// # Errors
    ///
    /// Names the event whose payload is missing a required field.
    pub fn from_events(events: &[Event]) -> Result<CausalLog, String> {
        use TraceValue as V;
        let mut log = CausalLog::default();
        // Per-track open episode.
        let mut open: Vec<CausalEpisode> = Vec::new();
        for e in events {
            if e.kind == "trace.dropped" {
                log.dropped_events += field(e, "dropped", V::as_u64)?;
                continue;
            }
            let Some(track) = e.stamp.as_ref().map(|s| &s.track) else {
                continue;
            };
            let slot = open.iter().position(|ep| *ep.track == **track);
            let event = match e.kind.as_ref() {
                "episode_begin" => {
                    if let Some(at) = slot {
                        // The previous episode's end marker was lost.
                        open.remove(at);
                        log.incomplete_episodes += 1;
                    }
                    open.push(CausalEpisode {
                        track: track.to_string(),
                        net: field(e, "net", V::as_u64)?,
                        ep: field(e, "ep", V::as_u64)?,
                        global_ep: field(e, "global_ep", V::as_u64)?,
                        policy: field(e, "policy", V::as_str)?.to_string(),
                        dataset: field(e, "dataset", V::as_str)?.to_string(),
                        budget: field(e, "budget", V::as_u64)?,
                        seed: field(e, "seed", V::as_str)?.to_string(),
                        events: Vec::new(),
                        end: EpisodeEnd {
                            total_benefit: 0.0,
                            requests: 0,
                            friends: 0,
                            cautious_friends: 0,
                            faults: 0,
                        },
                    });
                    continue;
                }
                "episode_end" => {
                    match slot {
                        Some(at) => {
                            let mut episode = open.remove(at);
                            episode.end = EpisodeEnd {
                                total_benefit: field(e, "total_benefit", V::as_f64)?,
                                requests: field(e, "requests", V::as_u64)?,
                                friends: field(e, "friends", V::as_u64)?,
                                cautious_friends: field(e, "cautious_friends", V::as_u64)?,
                                faults: field(e, "faults", V::as_u64)?,
                            };
                            log.episodes.push(episode);
                        }
                        None => log.incomplete_episodes += 1,
                    }
                    continue;
                }
                "request" => EpisodeEvent::Request(RequestEvent {
                    step: field(e, "step", V::as_u64)?,
                    target: field(e, "target", V::as_u64)?,
                    cautious: field(e, "cautious", V::as_bool)?,
                    theta: u64::try_from(field(e, "theta", V::as_i64)?).ok(),
                    mutual: field(e, "mutual", V::as_u64)?,
                    accepted: field(e, "accepted", V::as_bool)?,
                    faulted: field(e, "faulted", V::as_bool)?,
                    gain: field(e, "gain", V::as_f64)?,
                    cum_benefit: field(e, "cum_benefit", V::as_f64)?,
                }),
                "decide" => EpisodeEvent::Decide(DecideEvent {
                    picked: field(e, "picked", V::as_u64)?,
                    potential: field(e, "potential", V::as_f64)?,
                    q: field(e, "q", V::as_f64)?,
                    p_d: field(e, "p_d", V::as_f64)?,
                    p_i: field(e, "p_i", V::as_f64)?,
                    w_d: field(e, "w_d", V::as_f64)?,
                    w_i: field(e, "w_i", V::as_f64)?,
                    runner_up: u64::try_from(field(e, "runner_up", V::as_i64)?).ok(),
                    margin: field(e, "margin", V::as_f64)?,
                }),
                "cautious_progress" => EpisodeEvent::CautiousProgress {
                    node: field(e, "node", V::as_u64)?,
                    mutual: field(e, "mutual", V::as_u64)?,
                    theta: field(e, "theta", V::as_u64)?,
                },
                "abm_observe" => EpisodeEvent::Observe {
                    target: field(e, "target", V::as_u64)?,
                    accepted: field(e, "accepted", V::as_bool)?,
                    dirty: field(e, "dirty", V::as_u64)?,
                },
                // Spans and unknown instants (future layers) pass
                // through untyped.
                _ => continue,
            };
            if let Some(at) = slot {
                open[at].events.push(event);
            }
        }
        log.incomplete_episodes += open.len();
        Ok(log)
    }
}

/// Verifies that an episode's traced request stream reconstructs its
/// recorded summary **exactly**: request/friend/cautious-friend counts
/// match, the budget was respected, and — the bit-exact check — the
/// last request's cumulative benefit has the same `f64` bits as the
/// `episode_end` total (`0.0` for an episode with no requests).
///
/// # Errors
///
/// Returns a message describing the first mismatch.
pub fn verify_episode(episode: &CausalEpisode) -> Result<(), String> {
    let requests: Vec<&RequestEvent> = episode
        .events
        .iter()
        .filter_map(|e| match e {
            EpisodeEvent::Request(r) => Some(r),
            _ => None,
        })
        .collect();
    let who = format!(
        "episode net={} ep={} (track {})",
        episode.net, episode.ep, episode.track
    );
    if requests.len() as u64 != episode.end.requests {
        return Err(format!(
            "{who}: {} request events but episode_end says {}",
            requests.len(),
            episode.end.requests
        ));
    }
    if requests.len() as u64 > episode.budget {
        return Err(format!(
            "{who}: {} requests exceed budget {}",
            requests.len(),
            episode.budget
        ));
    }
    let friends = requests.iter().filter(|r| r.accepted).count() as u64;
    if friends != episode.end.friends {
        return Err(format!(
            "{who}: {friends} accepted requests but episode_end says {} friends",
            episode.end.friends
        ));
    }
    let cautious = requests.iter().filter(|r| r.accepted && r.cautious).count() as u64;
    if cautious != episode.end.cautious_friends {
        return Err(format!(
            "{who}: {cautious} cautious friends replayed but episode_end says {}",
            episode.end.cautious_friends
        ));
    }
    let replayed = requests.last().map_or(0.0, |r| r.cum_benefit);
    if replayed.to_bits() != episode.end.total_benefit.to_bits() {
        return Err(format!(
            "{who}: replayed benefit {replayed:?} != recorded total {:?} (bit-exact check)",
            episode.end.total_benefit
        ));
    }
    Ok(())
}

/// Renders one episode as a human-readable per-step narrative.
pub fn narrate_episode(episode: &CausalEpisode) -> String {
    let mut out = String::with_capacity(256);
    let _ = writeln!(
        out,
        "episode net={} ep={} (global {}, worker track {}): {} on {}, budget {}, seed {}",
        episode.net,
        episode.ep,
        episode.global_ep,
        episode.track,
        episode.policy,
        episode.dataset,
        episode.budget,
        episode.seed
    );
    let mut last_decide: Option<&DecideEvent> = None;
    for event in &episode.events {
        match event {
            EpisodeEvent::Decide(d) => last_decide = Some(d),
            EpisodeEvent::Request(r) => {
                let verdict = match (r.accepted, r.faulted) {
                    (true, _) => "befriended",
                    (false, true) => "lost to a platform fault:",
                    (false, false) => "rejected by",
                };
                let _ = write!(out, "  step {}: {} u{}", r.step, verdict, r.target);
                match last_decide.take() {
                    Some(d) if d.picked == r.target => {
                        let _ = write!(
                            out,
                            " (q={}, P_D={}, P_I={}",
                            short(d.q),
                            short(d.p_d),
                            short(d.p_i)
                        );
                        match d.runner_up {
                            Some(ru) => {
                                let _ = write!(out, "; beat u{ru} by {}", short(d.margin));
                            }
                            None => out.push_str("; only candidate"),
                        }
                        out.push(')');
                    }
                    _ => {}
                }
                if r.cautious {
                    let theta = r.theta.map_or("?".to_string(), |t| t.to_string());
                    let _ = write!(out, " [cautious, {}/{theta} mutuals]", r.mutual);
                }
                let _ = writeln!(
                    out,
                    "; gain {} → benefit {}",
                    short(r.gain),
                    short(r.cum_benefit)
                );
            }
            EpisodeEvent::CautiousProgress {
                node,
                mutual,
                theta,
            } => {
                let _ = writeln!(out, "    cautious v{node} now at {mutual}/{theta} mutuals");
            }
            EpisodeEvent::Observe {
                target,
                accepted,
                dirty,
            } => {
                let _ = writeln!(
                    out,
                    "    abm observed u{target} ({}), touched {dirty} candidates",
                    if *accepted { "accepted" } else { "declined" }
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "  end: benefit {} with {} friends ({} cautious), {} requests, {} faults",
        short(episode.end.total_benefit),
        episode.end.friends,
        episode.end.cautious_friends,
        episode.end.requests,
        episode.end.faults
    );
    out
}

/// Compact float rendering for narratives: 4 significant decimals, no
/// trailing zeros.
fn short(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e9 {
        format!("{}", x as i64)
    } else {
        let s = format!("{x:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accu_telemetry::read_events;

    fn parse_causal_log(text: &str) -> Result<CausalLog, String> {
        CausalLog::from_events(&read_events(text).events)
    }

    fn sample_log() -> String {
        [
            r#"{"type":"event","sev":"warn","kind":"trace.dropped","args":{"track":"worker-0","dropped":2}}"#,
            r#"{"type":"event","track":"worker-0","seq":0,"ts_ns":10,"sev":"debug","kind":"episodes.begin","args":{"net":0}}"#,
            r#"{"type":"event","track":"worker-0","seq":1,"ts_ns":11,"sev":"debug","kind":"episode_begin","args":{"net":0,"ep":0,"global_ep":0,"policy":"ABM","dataset":"BA","budget":3,"seed":"7"}}"#,
            r#"{"type":"event","track":"worker-0","seq":2,"ts_ns":12,"sev":"debug","kind":"decide","args":{"picked":4,"potential":1.5,"q":0.5,"p_d":3.0,"p_i":0.0,"w_d":1.0,"w_i":0.0,"runner_up":9,"margin":0.25}}"#,
            r#"{"type":"event","track":"worker-0","seq":3,"ts_ns":13,"sev":"debug","kind":"request","args":{"step":0,"target":4,"cautious":false,"theta":-1,"mutual":0,"accepted":true,"faulted":false,"gain":1.5,"cum_benefit":1.5}}"#,
            r#"{"type":"event","track":"worker-0","seq":4,"ts_ns":14,"sev":"debug","kind":"cautious_progress","args":{"node":9,"mutual":1,"theta":2}}"#,
            r#"{"type":"event","track":"worker-0","seq":5,"ts_ns":15,"sev":"debug","kind":"abm_observe","args":{"target":4,"accepted":true,"dirty":3}}"#,
            r#"{"type":"event","track":"worker-0","seq":6,"ts_ns":16,"sev":"debug","kind":"request","args":{"step":1,"target":9,"cautious":true,"theta":2,"mutual":1,"accepted":false,"faulted":false,"gain":0.0,"cum_benefit":1.5}}"#,
            r#"{"type":"event","track":"worker-0","seq":7,"ts_ns":17,"sev":"debug","kind":"episode_end","args":{"net":0,"ep":0,"global_ep":0,"total_benefit":1.5,"requests":2,"friends":1,"cautious_friends":0,"faults":0}}"#,
            r#"{"type":"event","track":"worker-0","seq":8,"ts_ns":18,"sev":"debug","kind":"episodes.end"}"#,
        ]
        .join("\n")
    }

    #[test]
    fn parses_episodes_with_all_event_kinds() {
        let read = accu_telemetry::check_events(&sample_log()).unwrap();
        assert_eq!((read.events.len(), read.skipped_lines), (10, 0));
        let log = parse_causal_log(&sample_log()).unwrap();
        assert_eq!(log.dropped_events, 2);
        assert_eq!(log.incomplete_episodes, 0);
        assert_eq!(log.episodes.len(), 1);
        let ep = &log.episodes[0];
        assert_eq!(ep.policy, "ABM");
        assert_eq!(ep.seed, "7");
        assert_eq!(ep.events.len(), 5);
        assert!(matches!(&ep.events[0], EpisodeEvent::Decide(d) if d.picked == 4));
        assert!(matches!(
            &ep.events[1],
            EpisodeEvent::Request(r) if r.theta.is_none() && r.accepted
        ));
        assert!(matches!(
            &ep.events[4],
            EpisodeEvent::Request(r) if r.theta == Some(2) && !r.accepted
        ));
        assert_eq!(ep.end.total_benefit, 1.5);
    }

    #[test]
    fn verify_accepts_consistent_and_rejects_tampered_episodes() {
        let log = parse_causal_log(&sample_log()).unwrap();
        verify_episode(&log.episodes[0]).unwrap();
        // Flip one bit of the recorded total: the replay must notice.
        let mut tampered = log.episodes[0].clone();
        tampered.end.total_benefit = f64::from_bits(tampered.end.total_benefit.to_bits() ^ 1);
        let err = verify_episode(&tampered).unwrap_err();
        assert!(err.contains("bit-exact"), "unexpected error: {err}");
        // Drop a friend from the summary.
        let mut tampered = log.episodes[0].clone();
        tampered.end.friends = 0;
        assert!(verify_episode(&tampered).is_err());
        // Claim a tighter budget than the trace used.
        let mut tampered = log.episodes[0].clone();
        tampered.budget = 1;
        assert!(verify_episode(&tampered).is_err());
    }

    #[test]
    fn narrative_mentions_decisions_and_cautious_progress() {
        let log = parse_causal_log(&sample_log()).unwrap();
        let text = narrate_episode(&log.episodes[0]);
        assert!(text.contains("befriended u4"), "{text}");
        assert!(text.contains("q=0.5"), "{text}");
        assert!(text.contains("beat u9 by 0.25"), "{text}");
        assert!(text.contains("cautious v9 now at 1/2 mutuals"), "{text}");
        assert!(text.contains("[cautious, 1/2 mutuals]"), "{text}");
        assert!(text.contains("end: benefit 1.5 with 1 friends"), "{text}");
    }

    #[test]
    fn lost_markers_count_as_incomplete_not_errors() {
        // An end without a begin (ring overwrote the begin), then a
        // begin without an end (worker died mid-episode).
        let text = [
            r#"{"type":"event","track":"worker-0","seq":0,"ts_ns":1,"sev":"debug","kind":"episode_end","args":{"net":0,"ep":0,"global_ep":0,"total_benefit":0.0,"requests":0,"friends":0,"cautious_friends":0,"faults":0}}"#,
            r#"{"type":"event","track":"worker-0","seq":1,"ts_ns":2,"sev":"debug","kind":"episode_begin","args":{"net":0,"ep":1,"global_ep":1,"policy":"ABM","dataset":"BA","budget":3,"seed":"8"}}"#,
        ]
        .join("\n");
        let log = parse_causal_log(&text).unwrap();
        assert_eq!(log.episodes.len(), 0);
        assert_eq!(log.incomplete_episodes, 2);
    }

    #[test]
    fn missing_fields_name_the_event() {
        let text = r#"{"type":"event","track":"worker-0","seq":3,"ts_ns":1,"sev":"debug","kind":"episode_begin","args":{"net":0}}"#;
        let err = parse_causal_log(text).unwrap_err();
        assert!(err.contains("episode_begin event (seq 3)"), "{err}");
        assert!(err.contains("\"ep\""), "{err}");
    }

    #[test]
    fn empty_episode_replays_to_zero_benefit() {
        let text = [
            r#"{"type":"event","track":"worker-0","seq":0,"ts_ns":1,"sev":"debug","kind":"episode_begin","args":{"net":0,"ep":0,"global_ep":0,"policy":"Random","dataset":"ER","budget":0,"seed":"1"}}"#,
            r#"{"type":"event","track":"worker-0","seq":1,"ts_ns":2,"sev":"debug","kind":"episode_end","args":{"net":0,"ep":0,"global_ep":0,"total_benefit":0.0,"requests":0,"friends":0,"cautious_friends":0,"faults":0}}"#,
        ]
        .join("\n");
        let log = parse_causal_log(&text).unwrap();
        verify_episode(&log.episodes[0]).unwrap();
    }
}
