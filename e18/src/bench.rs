//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer metrics, each with
//! its correctness checks.

use crate::layers;
use crate::runner::{self, Limit, Phase, Session};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::{self_time_ns, Tracer};
use crate::workload::{Kind, BATCH, FEEDS_PER_GROUP, GROUP};
use dosn_obs::names;
use dosn_overlay::storage::StoragePlane;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Replicates (set-up + measured phase) per untraced run; each call is
/// taken at the fastest of them. Also the share of the run's time (or op
/// count) one phase measures, in the untraced and the traced run alike.
///
/// Five, because in the host's bad minutes half the calls of a replicate
/// are disturbed: with three replicates an eighth of the calls were slow in
/// all of them and `call_p90_us` read a spell; with five it is 3 %.
const REPLICATES: usize = 5;
/// Scale of the runs the driver times (`--seconds` given): prefill sized
/// so that five set-ups and the measured phases take 13 to 28 s a run,
/// and the driver's 114 runs three quarters of its time limit.
pub const TIMED_SCALE: f64 = 0.2;

#[derive(Debug, Clone)]
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    /// Multiplies every op count (prefill and fixed-count stream length).
    pub scale: f64,
    /// Measure for this long; `None` runs the fixed op count instead.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub workers: usize,
}

/// What a run reports: metrics by name plus the contract's counts.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub run_digest: String,
    /// Violated correctness conditions (empty = correct).
    pub violations: Vec<String>,
}

impl Options {
    /// Calls in the fixed-count measured phase: the workload's op count at
    /// this scale, in whole calls.
    fn fixed_calls(&self) -> u64 {
        let count = (self.kind.base_count() as f64 * self.scale)
            .round()
            .max(1.0) as u64;
        match self.kind {
            Kind::PostWrite | Kind::ReadScanCold | Kind::ReadTamperF1 => {
                count.div_ceil(BATCH as u64)
            }
            Kind::FeedZipfWarm => count,
            // One `execute_all` group of 4 x 32 ops, then its feed calls.
            Kind::MixedSocial => {
                count.div_ceil((BATCH * GROUP) as u64) * (1 + FEEDS_PER_GROUP as u64)
            }
        }
    }

    /// The limit of one measured phase: one replicate's share of the
    /// run's time or op count, in the untraced run and the traced run
    /// (reference, traced, other worker count) alike, so that with fixed
    /// op counts every phase of a seed issues the same calls.
    fn phase_limit(&self) -> Limit {
        match self.seconds {
            Some(s) => Limit::Until(Duration::from_secs_f64(s / REPLICATES as f64)),
            None => Limit::Calls(self.rss_mark()),
        }
    }

    /// The call count at which peak memory is read: the length of one
    /// fixed-count phase, which a timed phase passes within its first
    /// second.
    fn rss_mark(&self) -> u64 {
        self.fixed_calls().div_ceil(REPLICATES as u64)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn l1_lookups(phase: &Phase) -> (u64, u64) {
    let hits = phase.counter_delta(names::CACHE_HITS);
    (hits, hits + phase.counter_delta(names::CACHE_MISSES))
}

/// Conditions every phase of a workload must meet.
fn check_phase(kind: Kind, phase: &Phase, violations: &mut Vec<String>) {
    if phase.ops_failed > 0 {
        violations.push(format!(
            "{} of {} ops failed; first: {}",
            phase.ops_failed,
            phase.ops_attempted,
            phase.first_failure.as_deref().unwrap_or("?")
        ));
    }
    let engine_ops = phase.counter_delta(names::ENGINE_OPS);
    if engine_ops != phase.ops_attempted {
        violations.push(format!(
            "engine counted {engine_ops} ops, harness issued {}",
            phase.ops_attempted
        ));
    }
    let (l1_hits, l1_total) = l1_lookups(phase);
    let l2_hits = phase.metric_delta(names::CACHE_HITS);
    match kind {
        Kind::ReadScanCold if l1_hits + l2_hits > 0 => violations.push(format!(
            "cold scan hit a cache ({l1_hits} L1 hits, {l2_hits} L2 hits)"
        )),
        Kind::FeedZipfWarm if ratio(l1_hits, l1_total) < 0.8 => violations.push(format!(
            "warm feed L1 hit ratio {:.3} below 0.8",
            ratio(l1_hits, l1_total)
        )),
        Kind::ReadTamperF1 => {
            if phase.after.tampered == phase.before.tampered {
                violations.push("adversary armed but tampered with nothing".to_owned());
            }
            if phase.wrong_bodies > 0 {
                violations.push(format!("{} forged bodies served", phase.wrong_bodies));
            }
        }
        _ => {}
    }
}

fn fresh_session(opts: &Options, workers: usize) -> Result<Session, String> {
    runner::set_up(opts.kind, opts.seed, opts.scale, workers)
}

/// The untraced run: end-to-end metrics only.
///
/// The run is `REPLICATES` independent replicates — set up the network,
/// then measure its share of the run's time (or op count) on it. The per-op
/// message counts are medians over the replicates; the timed metrics,
/// `setup_s` too, take each call at the fastest of the replicates
/// (`runner::fastest_of`, `runner::fastest_setup_s`).
pub fn run_untraced(opts: &Options) -> Result<Outcome, String> {
    let mut violations = Vec::new();
    let (mut setup_steps, mut msgs, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = Vec::with_capacity(REPLICATES);
    let mut first_rss = None;
    let (mut attempted, mut failed, mut calls) = (0, 0, 0);
    let mut digests = Vec::with_capacity(REPLICATES);
    for _ in 0..REPLICATES {
        // The previous replicate's network is dropped by now, so peak
        // memory is that of one network.
        let mut session = fresh_session(opts, opts.workers)?;
        let phase = runner::measure(
            &mut session,
            opts.phase_limit(),
            Some(opts.rss_mark()),
            None,
        );
        check_phase(opts.kind, &phase, &mut violations);
        let ops = phase.ops_attempted.max(1) as f64;
        // VmHWM only ever rises, and what later replicates add to it is
        // allocator fragmentation from rebuilding the network: the first
        // replicate's reading is the peak of one set-up plus one
        // fixed-count phase.
        let rss = phase.rss_mb_at_mark.ok_or("cannot read VmHWM")?;
        first_rss.get_or_insert(rss);
        setup_steps.push(std::mem::take(&mut session.setup_steps_ns));
        msgs.push((phase.after.messages - phase.before.messages) as f64 / ops);
        bytes.push((phase.after.bytes - phase.before.bytes) as f64 / ops);
        println!(
            "replicate: set-up {:.3} s, then {} calls / {} ops in {:.3} s wall ({:.3} s inside engine calls), p50 {:.1} us, p90 {:.1} us, {} cold passes, VmHWM {:.1} MiB",
            session.setup_s,
            phase.calls,
            phase.ops_attempted,
            phase.wall_s,
            phase.busy_s,
            percentile(&phase.latencies_ns, 0.5) as f64 / 1e3,
            percentile(&phase.latencies_ns, 0.9) as f64 / 1e3,
            phase.cold_passes,
            rss,
        );
        samples.push(phase.samples);
        attempted += phase.ops_attempted;
        failed += phase.ops_failed;
        calls += phase.calls;
        digests.push(phase.run_digest);
    }
    // With a fixed op count every replicate issued the same calls: their
    // results must be byte-identical.
    if opts.seconds.is_none() && digests.iter().any(|d| *d != digests[0]) {
        violations.push(format!("replicates of one op stream disagree: {digests:?}"));
    }
    let setup_s = runner::fastest_setup_s(&setup_steps)?;
    let kept = runner::fastest_of(&samples)?;
    println!(
        "latency samples: {} calls, each the fastest of {REPLICATES} replicates ({calls} calls made)",
        kept.latencies_ns.len()
    );
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => setup_s,
                "ops_per_s" => kept.ops_per_s(),
                "call_p50_us" => percentile(&kept.latencies_ns, 0.5) as f64 / 1e3,
                "call_p90_us" => percentile(&kept.latencies_ns, 0.9) as f64 / 1e3,
                "peak_rss_mb" => first_rss.expect("at least one replicate ran"),
                "overlay_msgs_per_op" => median(&msgs),
                "overlay_bytes_per_op" => median(&bytes),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            (m.name, value)
        })
        .collect();
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        run_digest: digests.swap_remove(0),
        violations,
    })
}

/// Modelled share of the traced phase's wall time that the layer unit
/// costs account for: each unit cost times the number of times the phase
/// called that layer (from the program's own counters), steps that run on
/// the worker threads divided by the worker count.
fn attributed_share(
    phase: &Phase,
    layer: &BTreeMap<&'static str, f64>,
    workers: usize,
    tampering: bool,
) -> f64 {
    let us = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let ns = |name: &str| us(name) / 1e3;
    let posts = phase.hist_delta(names::NET_POST).1 as f64;
    let quorum_reads = phase.hist_delta(names::STORE_GET_QUORUM).1 as f64;
    let repairs = phase.metric_delta(names::GET_REPAIRS) as f64;
    let (_, lookups) = l1_lookups(phase);
    let (verify3, vote) = if tampering {
        (
            us("integrity.verify_batch3_one_forged_us"),
            ns("replication.quorum_vote_disagree_ns"),
        )
    } else {
        (
            us("integrity.verify_batch3_us"),
            ns("replication.quorum_vote_agree_ns"),
        )
    };
    let post_parallel = us("privacy.symmetric.encrypt_us")
        + us("integrity.seal_us")
        + us("integrity.timeline_append_us")
        + us("integrity.relation_keys_us");
    let read_parallel = verify3
        + vote
        + us("integrity.verify_us")
        + 2.0 * ns("integrity.decode_wire_ns")
        + us("privacy.symmetric.decrypt_us");
    let per_op_obs = 2.0 * ns("obs.histogram_record_ns") + ns("obs.counter_add_ns");
    // The layer section exponentiates under cached fixed-base tables; in
    // the phase every table miss ran a full modpow instead.
    let pows = phase.pows() as f64;
    let table_miss_penalty = pows * (us("bigint.modpow_us") - us("bigint.fixed_base_pow_us"));
    let attributed_us = posts * (post_parallel / workers as f64 + us("replication.put_us"))
        + quorum_reads
            * (read_parallel / workers as f64
                + us("replication.fetch_copies_us")
                + ns("feed.insert_ns"))
        + repairs * ns("overlay.chord.store_at_ns")
        + lookups as f64 * ns("feed.lookup_hit_ns")
        + table_miss_penalty / workers as f64
        + phase.ops_attempted as f64 * per_op_obs;
    attributed_us / (phase.busy_s * 1e6)
}

/// The traced run: the workload once untraced (the reference), once with
/// span recording on, then the layer section, then once more on the other
/// worker count.
pub fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let mut violations = Vec::new();

    // A throw-away set-up first, so the reference phase is not the only
    // one that pays for a cold process (first-touch page faults): the
    // comparison below should show the cost of tracing, nothing else.
    drop(fresh_session(opts, opts.workers)?);
    let mut session = fresh_session(opts, opts.workers)?;
    let reference = runner::measure(&mut session, opts.phase_limit(), None, None);
    check_phase(opts.kind, &reference, &mut violations);
    drop(session);

    // Same calls again with spans on: the digests must agree.
    let mut tracer = Tracer::new();
    let mut session = fresh_session(opts, opts.workers)?;
    let traced = runner::measure(
        &mut session,
        Limit::Calls(reference.calls),
        None,
        Some(&mut tracer),
    );
    check_phase(opts.kind, &traced, &mut violations);
    if traced.run_digest != reference.run_digest {
        violations.push(format!(
            "run_digest differs between the untraced ({}) and traced ({}) run",
            reference.run_digest, traced.run_digest
        ));
    }

    let (mut layer, layers_root) =
        layers::run(&mut tracer, &session.gen.graph, session.engine.obs());
    let hot_entries = session
        .engine
        .storage()
        .plane()
        .hot_cache()
        .map_or(0, |c| c.len());
    drop(session);

    // And once more on the other worker count (2 where the run used 1,
    // else 1): results must not depend on it, and the throughput ratio is
    // the engine's parallel scaling. A box with one core has nothing to
    // compare.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scaling = if cores >= 2 {
        let other = if opts.workers == 1 { 2 } else { 1 };
        let mut session = fresh_session(opts, other)?;
        let rerun = runner::measure(&mut session, Limit::Calls(reference.calls), None, None);
        if rerun.run_digest != reference.run_digest {
            violations.push(format!(
                "run_digest differs between {} and {other} workers",
                opts.workers
            ));
        }
        if other == 2 {
            rerun.ops_per_s() / reference.ops_per_s()
        } else {
            reference.ops_per_s() / rerun.ops_per_s()
        }
    } else {
        1.0
    };

    let ops = traced.ops_attempted.max(1) as f64;
    let per_op = |hist: &str| traced.hist_delta(hist).0 as f64 / ops;
    let (l1_hits, l1_total) = l1_lookups(&traced);
    let social_hits = traced.metric_delta(names::PLACEMENT_SOCIAL_HITS);
    let fallbacks = traced.metric_delta(names::PLACEMENT_FALLBACKS);
    let puts = traced.hist_delta(names::NET_POST).1;
    let table_hits = traced.after.table_hits - traced.before.table_hits;
    let table_misses = traced.after.table_misses - traced.before.table_misses;
    let pows = traced.pows();
    let montgomery = traced.after.exp.montgomery_pows - traced.before.exp.montgomery_pows;
    let share = attributed_share(
        &traced,
        &layer,
        opts.workers,
        opts.kind == Kind::ReadTamperF1,
    );
    layer.extend([
        ("engine.plan_us_per_op", per_op(names::ENGINE_PLAN)),
        ("engine.prepare_us_per_op", per_op(names::ENGINE_PREPARE)),
        ("engine.commit_us_per_op", per_op(names::ENGINE_COMMIT)),
        ("engine.finish_us_per_op", per_op(names::ENGINE_FINISH)),
        (
            "engine.call_p99_us",
            percentile(&traced.latencies_ns, 0.99) as f64 / 1e3,
        ),
        ("engine.scaling_2w", scaling),
        (
            "engine.pipeline_overlaps",
            traced.counter_delta(names::ENGINE_PIPELINE_OVERLAP) as f64,
        ),
        (
            "engine.fail_closed",
            traced.counter_delta(names::ENGINE_READ_FAIL_CLOSED) as f64,
        ),
        ("feed.l1_hit_ratio", ratio(l1_hits, l1_total)),
        (
            "feed.invalidations",
            traced.counter_delta(names::CACHE_INVALIDATIONS) as f64,
        ),
        (
            "feed.evictions",
            traced.counter_delta(names::CACHE_EVICTIONS) as f64,
        ),
        ("hotcache.entries_at_end", hot_entries as f64),
        (
            "replication.replicas_written_per_put",
            ratio(traced.metric_delta(names::STORE_REPLICAS_WRITTEN), puts),
        ),
        (
            "replication.repairs",
            traced.metric_delta(names::GET_REPAIRS) as f64,
        ),
        (
            "overlay.social_placement_share",
            ratio(social_hits, social_hits + fallbacks),
        ),
        (
            "crypto.group.table_hit_ratio",
            ratio(table_hits, table_hits + table_misses),
        ),
        ("bigint.pow_per_op", pows as f64 / ops),
        ("bigint.pow_montgomery_share", ratio(montgomery, pows)),
        ("budget.attributed_share", share),
        (
            "trace.overhead_share",
            1.0 - traced.ops_per_s() / reference.ops_per_s(),
        ),
    ]);

    let path = PathBuf::from(format!("target/e18/trace-{}.jsonl", opts.kind.name()));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}; layer section {:.3} s, of which {:.3} s outside any layer call",
        tracer.spans.len(),
        path.display(),
        {
            let s = &tracer.spans[layers_root as usize];
            (s.end_ns - s.start_ns) as f64 / 1e9
        },
        self_time_ns(&tracer.spans, layers_root) as f64 / 1e9,
    );
    println!(
        "phases: reference {} calls / {} ops / {:.3} s, traced {:.3} s",
        reference.calls, reference.ops_attempted, reference.wall_s, traced.wall_s
    );

    let mut metrics = BTreeMap::new();
    for m in PER_LAYER {
        let value = layer
            .get(m.name)
            .copied()
            .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
        metrics.insert(m.name, value);
    }
    Ok(Outcome {
        metrics,
        attempted: reference.ops_attempted + traced.ops_attempted,
        failed: reference.ops_failed + traced.ops_failed,
        run_digest: traced.run_digest,
        violations,
    })
}
