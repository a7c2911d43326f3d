//! Set-up and the measured phase: a closed loop with one client thread
//! that issues the generator's calls into the engine one at a time, times
//! each call, and checks every result against the model.

use crate::stack::{self, Sut, FEED_DEPTH};
use crate::trace::Tracer;
use crate::workload::{Call, Expect, Generator, Kind, Model, Planned};
use dosn_bigint::ExpStats;
use dosn_core::engine::{BatchReport, Op, OpOutput};
use dosn_core::DosnError;
use dosn_crypto::group::{GroupSize, SchnorrGroup};
use dosn_crypto::sha256::Sha256;
use dosn_obs::Snapshot;
use dosn_overlay::metrics::Metrics;
use dosn_overlay::storage::StoragePlane;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A network that finished set-up and is ready for its measured phase.
pub struct Session {
    pub engine: Sut,
    pub gen: Generator,
    pub setup_s: f64,
    /// The set-up's wall time step by step: building the graph and the
    /// stack, then each set-up call (from the previous step's end to its
    /// own), then arming. Sums to `setup_s`.
    pub setup_steps_ns: Vec<u64>,
}

/// When the measured phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After the first call that ends past this much wall time.
    Until(Duration),
    /// After exactly this many calls (repeatable counts).
    Calls(u64),
}

/// Everything the program exposes about its own activity, read before and
/// after a phase; per-layer call counts are differences of two probes.
#[derive(Debug, Clone)]
pub struct Probe {
    pub messages: u64,
    pub bytes: u64,
    pub by_type: BTreeMap<String, u64>,
    pub obs: Snapshot,
    pub exp: ExpStats,
    pub table_hits: u64,
    pub table_misses: u64,
    pub tampered: u64,
}

impl Probe {
    pub fn take(engine: &Sut) -> Probe {
        let group = SchnorrGroup::shared(GroupSize::Toy);
        let (table_hits, table_misses) = group.pow_cache_stats();
        let metrics = engine.metrics();
        Probe {
            messages: metrics.messages,
            bytes: metrics.bytes,
            by_type: metrics.by_type.clone(),
            obs: engine.obs().snapshot(),
            exp: group.exp_stats(),
            table_hits,
            table_misses,
            tampered: engine.storage().plane().stats().tampered,
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the call returned, from the start of the phase.
    pub end_ns: u64,
    pub latency_ns: u64,
    pub ops: u64,
}

/// The calls of a run, each at the fastest of its replicates.
#[derive(Debug)]
pub struct Fastest {
    pub ops: u64,
    /// Sum over the calls of the least time a replicate took from the
    /// previous call's return to this call's.
    pub wall_ns: u64,
    /// Least wall latency of each call, ascending.
    pub latencies_ns: Vec<u64>,
}

impl Fastest {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// What the timed end-to-end metrics are computed from. The replicates of
/// a run replay one op stream on identical state, so call `i` is the same
/// work in each of them: its time is the fastest of the replicates', over
/// the calls every replicate reached. `Err` if the replicates did not make
/// the same calls.
///
/// On this kind of host (a few cores of a shared machine) the program runs
/// at about 0.6 of its speed for 0.03 to 0.3 s at a time (sometimes for
/// seconds), several times a second in a bad minute and hardly ever in a
/// good one. Such a spell lowers whole-run throughput in proportion to its
/// length and, once it covers a tenth of the calls, it *is* the 90th
/// percentile. Everything else on the host only ever adds time to a call,
/// and a spell would have to hit the same call in every replicate to
/// survive the minimum (half the calls disturbed leaves 3 % of five),
/// whereas what the program itself does slowly it does slowly every time.
/// Nothing is dropped, so a workload whose calls get slower as its state
/// grows is measured over its whole phase.
pub fn fastest_of(replicates: &[Vec<Sample>]) -> Result<Fastest, String> {
    let calls = replicates.iter().map(Vec::len).min().unwrap_or(0);
    let mut out = Fastest {
        ops: 0,
        wall_ns: 0,
        latencies_ns: Vec::with_capacity(calls),
    };
    for i in 0..calls {
        let ops = replicates[0][i].ops;
        if replicates.iter().any(|r| r[i].ops != ops) {
            return Err(format!("replicates disagree on the ops of call {i}"));
        }
        let since_previous =
            |r: &Vec<Sample>| r[i].end_ns - if i == 0 { 0 } else { r[i - 1].end_ns };
        out.ops += ops;
        out.wall_ns += replicates.iter().map(since_previous).min().unwrap_or(0);
        out.latencies_ns
            .extend(replicates.iter().map(|r| r[i].latency_ns).min());
    }
    out.latencies_ns.sort_unstable();
    Ok(out)
}

/// `setup_s`: the set-ups of a run build the same network by the same
/// calls, so each step is taken at the fastest of the replicates', like
/// the calls of the measured phase.
pub fn fastest_setup_s(replicates: &[Vec<u64>]) -> Result<f64, String> {
    let steps = replicates.first().map_or(0, Vec::len);
    if replicates.iter().any(|r| r.len() != steps) {
        return Err("replicates disagree on the number of set-up steps".to_owned());
    }
    let total_ns: u64 = (0..steps)
        .map(|i| replicates.iter().map(|r| r[i]).min().unwrap_or(0))
        .sum();
    Ok(total_ns as f64 / 1e9)
}

/// The result of one measured phase.
#[derive(Debug)]
pub struct Phase {
    pub calls: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Wall time of the phase, first call issued to last call returned.
    pub wall_s: f64,
    /// Time spent inside engine calls (the rest is the harness generating
    /// and checking).
    pub busy_s: f64,
    /// Per-call wall latency, ascending.
    pub latencies_ns: Vec<u64>,
    /// Every call in issue order.
    pub samples: Vec<Sample>,
    pub run_digest: String,
    pub cold_passes: u64,
    /// `VmHWM` in MiB when the phase reached its `rss_mark`.
    pub rss_mb_at_mark: Option<f64>,
    pub wrong_bodies: u64,
    pub first_failure: Option<String>,
    pub before: Probe,
    pub after: Probe,
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        self.ops_attempted as f64 / self.wall_s
    }

    /// Modular exponentiations the shared group ran during the phase.
    pub fn pows(&self) -> u64 {
        self.after.exp.total() - self.before.exp.total()
    }

    pub fn counter_delta(&self, name: &str) -> u64 {
        let get = |p: &Probe| p.obs.counters.get(name).copied().unwrap_or(0);
        get(&self.after) - get(&self.before)
    }

    pub fn metric_delta(&self, name: &str) -> u64 {
        let get = |p: &Probe| p.by_type.get(name).copied().unwrap_or(0);
        get(&self.after) - get(&self.before)
    }

    /// Sum (µs) and count of the samples a registry histogram gained.
    pub fn hist_delta(&self, name: &str) -> (u64, u64) {
        let get = |p: &Probe| {
            p.obs
                .histograms
                .get(name)
                .map_or((0, 0), |h| (h.sum(), h.count()))
        };
        let (a, b) = (get(&self.after), get(&self.before));
        (a.0 - b.0, a.1 - b.1)
    }
}

/// Outcome of checking one call's results.
#[derive(Default)]
struct Check {
    ops: u64,
    failed: u64,
    wrong_bodies: u64,
    first_failure: Option<String>,
}

impl Check {
    fn fail(&mut self, wrong_body: bool, describe: impl FnOnce() -> String) {
        self.failed += 1;
        self.wrong_bodies += u64::from(wrong_body);
        if self.first_failure.is_none() {
            self.first_failure = Some(describe());
        }
    }

    fn absorb(&mut self, other: Check) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.wrong_bodies += other.wrong_bodies;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// An op fails if its result is `Err` or differs from the generator's
/// expected output.
fn check_batch(model: &Model, expect: &[Expect], report: &BatchReport) -> Check {
    let mut check = Check {
        ops: expect.len() as u64,
        ..Check::default()
    };
    if report.results.len() != expect.len() {
        check.failed = check.ops;
        check.first_failure = Some(format!(
            "{} results for {} ops",
            report.results.len(),
            expect.len()
        ));
        return check;
    }
    for (i, (want, got)) in expect.iter().zip(&report.results).enumerate() {
        let ok = match (want, got) {
            (Expect::Registered, Ok(OpOutput::Registered))
            | (Expect::Befriended, Ok(OpOutput::Befriended))
            | (Expect::Commented, Ok(OpOutput::Commented)) => true,
            (Expect::Posted { seq, .. }, Ok(OpOutput::Posted { seq: got })) => {
                u64::from(*seq) == *got
            }
            (Expect::Read { author, seq }, Ok(OpOutput::Read { body })) => {
                *body == model.walls[*author as usize][*seq as usize]
            }
            _ => false,
        };
        if !ok {
            let wrong_body = matches!(got, Ok(OpOutput::Read { .. }));
            check.fail(wrong_body, || format!("op {i}: want {want:?}, got {got:?}"));
        }
    }
    check
}

fn check_feed(
    model: &Model,
    user: u32,
    got: &Result<Vec<dosn_core::feed::FeedItem>, DosnError>,
) -> Check {
    let want = model.expected_feed(user);
    let mut check = Check {
        ops: want.len() as u64,
        ..Check::default()
    };
    let items = match got {
        Ok(items) if items.len() == want.len() => items,
        other => {
            check.failed = check.ops.max(1);
            check.first_failure = Some(format!(
                "feed of {}: want {} items, got {:?}",
                model.name(user),
                want.len(),
                other.as_ref().map(Vec::len)
            ));
            return check;
        }
    };
    for ((author, seq), item) in want.iter().zip(items) {
        let same_slot = item.author.as_str() == model.name(*author) && item.seq == u64::from(*seq);
        if !same_slot || item.body != model.walls[*author as usize][*seq as usize] {
            check.fail(same_slot, || {
                format!(
                    "feed of {}: want {}/{seq}, got {}/{}",
                    model.name(user),
                    model.name(*author),
                    item.author,
                    item.seq
                )
            });
        }
    }
    check
}

/// Binds every post the plan will create to its author's vertex, so the
/// replicas land on the author's friends (untimed harness work).
fn assign_owners(engine: &mut Sut, model: &Model, plan: &Planned) {
    for (op, expect) in plan.batch.ops().iter().zip(&plan.expect) {
        if let (
            Op::Post { author, .. },
            Expect::Posted {
                author: vertex,
                seq,
            },
        ) = (op, expect)
        {
            debug_assert_eq!(author, model.name(*vertex));
            stack::assign_owner(engine, author, u64::from(*seq), *vertex);
        }
    }
}

/// Issues one call, returning its wall latency, the folded digest input
/// and the check of its results.
fn issue(engine: &mut Sut, model: &Model, call: Call, digest: &mut Sha256) -> (Duration, Check) {
    match call {
        Call::Execute(plan) => {
            assign_owners(engine, model, &plan);
            let Planned { batch, expect } = plan;
            let started = Instant::now();
            let report = engine.execute(batch);
            let took = started.elapsed();
            digest.update(report.digest_hex().as_bytes());
            (took, check_batch(model, &expect, &report))
        }
        Call::ExecuteAll(plans) => {
            let mut expects = Vec::with_capacity(plans.len());
            let mut batches = Vec::with_capacity(plans.len());
            for plan in plans {
                assign_owners(engine, model, &plan);
                expects.push(plan.expect);
                batches.push(plan.batch);
            }
            let started = Instant::now();
            let reports = engine.execute_all(batches);
            let took = started.elapsed();
            let mut check = Check::default();
            if reports.len() != expects.len() {
                check.fail(false, || "execute_all dropped a batch".to_owned());
            }
            for (expect, report) in expects.iter().zip(&reports) {
                digest.update(report.digest_hex().as_bytes());
                check.absorb(check_batch(model, expect, report));
            }
            (took, check)
        }
        Call::ReadFeed(user) => {
            let started = Instant::now();
            let got = engine.read_feed(model.name(user), FEED_DEPTH);
            let took = started.elapsed();
            digest.update(b"feed");
            for item in got.iter().flatten() {
                digest.update(item.author.as_bytes());
                digest.update(&item.seq.to_be_bytes());
                digest.update(item.body.as_bytes());
            }
            (took, check_feed(model, user, &got))
        }
        Call::ColdPassEnd => unreachable!("the phase loop handles pass ends"),
    }
}

fn call_kind(call: &Call) -> &'static str {
    match call {
        Call::Execute(_) => "execute",
        Call::ExecuteAll(_) => "execute_all",
        Call::ReadFeed(_) => "read_feed",
        Call::ColdPassEnd => "cold_pass_end",
    }
}

/// Builds the stack and drives the workload's set-up through it. The
/// returned `setup_s` covers graph generation, store construction,
/// registers, befriends, prefill and warm-up.
pub fn set_up(kind: Kind, seed: u64, scale: f64, workers: usize) -> Result<Session, String> {
    let started = Instant::now();
    let mut gen = Generator::new(kind, seed, scale);
    let mut engine = stack::build(&gen.graph, workers);
    let mut digest = Sha256::new();
    let mut setup_steps_ns = Vec::new();
    let mut step_from = started;
    let mut step = |steps: &mut Vec<u64>| {
        let now = Instant::now();
        steps.push((now - step_from).as_nanos() as u64);
        step_from = now;
        now
    };
    step(&mut setup_steps_ns);
    while let Some(call) = gen.next_setup() {
        let what = call_kind(&call);
        let (_, check) = issue(&mut engine, &gen.model, call, &mut digest);
        step(&mut setup_steps_ns);
        if check.failed > 0 {
            return Err(format!(
                "set-up {what} failed {} of {} ops: {}",
                check.failed,
                check.ops,
                check.first_failure.unwrap_or_default()
            ));
        }
    }
    if kind == Kind::ReadTamperF1 {
        stack::set_adversary(&mut engine, true);
    }
    let setup_s = (step(&mut setup_steps_ns) - started).as_secs_f64();

    // The harness derives storage keys itself to bind placement; make sure
    // they are the keys the engine writes to.
    let probe_user = gen.model.registered.iter().position(|&r| r).unwrap_or(0) as u32;
    let key = stack::wall_key(gen.model.name(probe_user), 0);
    let holders = engine
        .storage_mut()
        .plane_mut()
        .inner_mut()
        .replica_candidates(key, stack::REPLICAS, &mut Metrics::new())
        .map_err(|e| format!("no candidates for the probe key: {e}"))?;
    let mut held = false;
    for node in holders {
        held |= matches!(
            engine
                .storage_mut()
                .plane_mut()
                .inner_mut()
                .fetch_from(node, key, &mut Metrics::new()),
            Ok(Some(_))
        );
    }
    if !held {
        return Err("harness wall_key disagrees with the engine's storage keys".to_owned());
    }
    Ok(Session {
        engine,
        gen,
        setup_s,
        setup_steps_ns,
    })
}

/// Runs the measured phase: a closed loop, one call in flight.
///
/// `rss_mark` asks for a reading of the process's peak memory once that
/// many calls have returned (or at the end of a shorter phase): a phase
/// that stops at a deadline makes more calls, and so grows more state, on
/// a faster run, and a reading at its end would measure the host's speed.
pub fn measure(
    session: &mut Session,
    limit: Limit,
    rss_mark: Option<u64>,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let Session { engine, gen, .. } = session;
    let before = Probe::take(engine);
    let mut digest = Sha256::new();
    let mut total = Check::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut busy = Duration::ZERO;
    let mut cold_passes = 0;
    let mut rss_mb_at_mark = None;
    let started = Instant::now();
    let mut last_return = started;
    loop {
        match limit {
            Limit::Until(deadline) if last_return - started >= deadline => break,
            Limit::Calls(n) if samples.len() as u64 >= n => break,
            _ => {}
        }
        let call = gen.next_call();
        if matches!(call, Call::ColdPassEnd) {
            stack::reset_caches(engine);
            cold_passes += 1;
            continue;
        }
        let kind = call_kind(&call);
        let span_start = tracer.as_ref().map(|t| t.now_ns());
        let (took, check) = issue(engine, &gen.model, call, &mut digest);
        if let (Some(t), Some(start)) = (tracer.as_deref_mut(), span_start) {
            let end = t.now_ns();
            t.record(None, kind, check.ops, start, end);
        }
        last_return = Instant::now();
        busy += took;
        samples.push(Sample {
            end_ns: (last_return - started).as_nanos() as u64,
            latency_ns: took.as_nanos() as u64,
            ops: check.ops,
        });
        total.absorb(check);
        if rss_mark == Some(samples.len() as u64) {
            rss_mb_at_mark = peak_rss_mb();
        }
    }
    if rss_mark.is_some() && rss_mb_at_mark.is_none() {
        rss_mb_at_mark = peak_rss_mb();
    }
    let wall_s = (last_return - started).as_secs_f64();
    let after = Probe::take(engine);
    let mut latencies_ns: Vec<u64> = samples.iter().map(|c| c.latency_ns).collect();
    latencies_ns.sort_unstable();
    Phase {
        calls: samples.len() as u64,
        ops_attempted: total.ops,
        ops_failed: total.failed,
        wall_s,
        busy_s: busy.as_secs_f64(),
        latencies_ns,
        samples,
        run_digest: digest
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect(),
        cold_passes,
        rss_mb_at_mark,
        wrong_bodies: total.wrong_bodies,
        first_failure: total.first_failure,
        before,
        after,
    }
}

/// `VmHWM` of this process in MiB (peak resident set size).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    const MS: u64 = 1_000_000;

    /// Back-to-back calls of the given latencies (ms), 32 ops each, with
    /// 1 ms of harness time before each.
    fn phase(latencies_ms: impl IntoIterator<Item = u64>) -> Vec<Sample> {
        let mut end_ns = 0;
        latencies_ms
            .into_iter()
            .map(|ms| {
                end_ns += (ms + 1) * MS;
                Sample {
                    end_ns,
                    latency_ns: ms * MS,
                    ops: 32,
                }
            })
            .collect()
    }

    #[test]
    fn a_spell_in_one_replicate_is_gone_and_the_programs_own_slow_calls_stay() {
        // 300 calls of 10 ms, every tenth 30 ms in every replicate (the
        // program's own tail); the host ran slow during calls 100..150 of
        // the first replicate and 140..200 of the second.
        let replicate = |spell: std::ops::Range<u64>| {
            phase((0..300u64).map(|i| {
                let own = if i % 10 == 9 { 30 } else { 10 };
                if spell.contains(&i) {
                    own * 8 / 5
                } else {
                    own
                }
            }))
        };
        let replicates = [replicate(100..150), replicate(140..200), replicate(0..0)];
        let fastest = fastest_of(&replicates).unwrap();
        let count = |ms: u64| {
            fastest
                .latencies_ns
                .iter()
                .filter(|&&l| l == ms * MS)
                .count()
        };
        assert_eq!((count(10), count(30)), (270, 30));
        assert_eq!(percentile(&fastest.latencies_ns, 0.9), 10 * MS);
        assert_eq!(percentile(&fastest.latencies_ns, 0.95), 30 * MS);
        assert_eq!(fastest.ops, 300 * 32);
        assert_eq!(fastest.wall_ns, (270 * 11 + 30 * 31) * MS);
        // A whole-run statistic of the first replicate reads the spell.
        let mut first: Vec<u64> = replicates[0].iter().map(|c| c.latency_ns).collect();
        first.sort_unstable();
        assert_eq!(percentile(&first, 0.9), 16 * MS);
    }

    #[test]
    fn set_up_takes_each_step_at_its_fastest_replicate() {
        let steps = [vec![5 * MS, 9 * MS, 2 * MS], vec![4 * MS, 7 * MS, 3 * MS]];
        assert_eq!(fastest_setup_s(&steps).unwrap(), 0.013);
        assert!(fastest_setup_s(&[vec![MS, MS], vec![MS]]).is_err());
    }

    #[test]
    fn only_calls_every_replicate_reached_count_and_streams_must_match() {
        let fastest = fastest_of(&[phase([10; 25]), phase([12; 20]), phase([11; 30])]).unwrap();
        assert_eq!(fastest.latencies_ns, vec![10 * MS; 20]);
        assert!((fastest.ops_per_s() - 32.0 / 0.011).abs() < 1e-6);
        let mut other = phase([10; 20]);
        other[7].ops = 18;
        assert!(fastest_of(&[phase([10; 20]), other]).is_err());
    }
}
