//! Property-based tests over the core invariants, spanning crates.
//!
//! Ported from `proptest` to the in-repo `kooza-check` harness: every
//! property runs a deterministic, seeded case stream (configure with
//! `KOOZA_CHECK_CASES` / `KOOZA_CHECK_SEED`), so a green run is green
//! everywhere.

use kooza_check::gen::{choice, f64_range, u64_range, usize_range, vec_of, zip2, zip3, zip4, zip6};
use kooza_check::{checker, ensure};

use kooza_markov::MarkovChainBuilder;
use kooza_queueing::analytic::{mg1, mm1, mmc};
use kooza_sim::rng::Rng64;
use kooza_sim::{Engine, SimDuration, Tally};
use kooza_stats::dist::{Distribution, Exponential, LogNormal, Pareto, Uniform, Weibull};
use kooza_stats::summary::percentile;
use kooza_trace::characterize::{arrival_profile, storage_profile};
use kooza_trace::record::{Direction, IoOp, NetworkRecord, StorageRecord};

/// Every distribution's quantile inverts its cdf on the open interval.
#[test]
fn quantile_inverts_cdf() {
    checker("quantile_inverts_cdf").run(
        zip6(
            f64_range(0.001, 0.999), // p
            f64_range(0.1, 50.0),    // rate
            f64_range(-3.0, 3.0),    // mu
            f64_range(0.05, 2.0),    // sigma
            f64_range(1.05, 4.0),    // alpha
            f64_range(0.3, 4.0),     // shape
        ),
        |&(p, rate, mu, sigma, alpha, shape)| {
            let dists: Vec<Box<dyn Distribution>> = vec![
                Box::new(Exponential::new(rate).unwrap()),
                Box::new(LogNormal::new(mu, sigma).unwrap()),
                Box::new(Pareto::new(0.5, alpha).unwrap()),
                Box::new(Weibull::new(shape, 1.5).unwrap()),
                Box::new(Uniform::new(mu, mu + 2.0).unwrap()),
            ];
            for d in &dists {
                let x = d.quantile(p);
                let back = d.cdf(x);
                ensure!((back - p).abs() < 1e-6, "{}: cdf(q({p})) = {back}", d.name());
            }
            Ok(())
        },
    );
}

/// Cdfs are monotone non-decreasing.
#[test]
fn cdf_is_monotone() {
    checker("cdf_is_monotone").run(
        zip3(f64_range(-10.0, 10.0), f64_range(-10.0, 10.0), f64_range(0.1, 3.0)),
        |&(a, b, sigma)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let d = LogNormal::new(0.0, sigma).unwrap();
            ensure!(d.cdf(lo) <= d.cdf(hi) + 1e-15, "cdf({lo}) > cdf({hi})");
            Ok(())
        },
    );
}

/// Samples fall inside the support and within extreme quantiles.
#[test]
fn samples_respect_support() {
    checker("samples_respect_support").run(
        zip2(u64_range(0, 5000), f64_range(1.1, 4.0)),
        |&(seed, alpha)| {
            let d = Pareto::new(2.0, alpha).unwrap();
            let mut rng = Rng64::new(seed);
            for _ in 0..50 {
                let x = d.sample(&mut rng);
                ensure!(x >= 2.0, "sample {x} below support");
            }
            Ok(())
        },
    );
}

/// Trained Markov chains always have stochastic rows, whatever the
/// observed sequence.
#[test]
fn markov_rows_stochastic() {
    checker("markov_rows_stochastic").run(
        vec_of(usize_range(0, 6), 2, 200),
        |seq: &Vec<usize>| {
            let chain = MarkovChainBuilder::new(6).observe_sequence(seq).build().unwrap();
            for i in 0..6 {
                let sum: f64 = chain.row(i).iter().sum();
                ensure!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
                ensure!(
                    chain.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)),
                    "row {i} has out-of-range probabilities"
                );
            }
            let pi = chain.stationary().unwrap();
            let total: f64 = pi.iter().sum();
            ensure!((total - 1.0).abs() < 1e-9, "stationary sums to {total}");
            Ok(())
        },
    );
}

/// Little's law holds in every stable analytic queue.
#[test]
fn littles_law() {
    checker("littles_law").run(
        zip4(
            f64_range(0.1, 9.0),   // lambda
            f64_range(10.0, 20.0), // mu
            usize_range(1, 8),     // c
            f64_range(0.0, 4.0),   // scv
        ),
        |&(lambda, mu, c, scv)| {
            for m in [
                mm1(lambda, mu).unwrap(),
                mmc(lambda, mu, c).unwrap(),
                mg1(lambda, 1.0 / mu, scv).unwrap(),
            ] {
                ensure!(
                    (m.mean_jobs - lambda * m.mean_response).abs() < 1e-9,
                    "L = {} but λW = {}",
                    m.mean_jobs,
                    lambda * m.mean_response
                );
                ensure!(m.mean_wait >= -1e-12, "negative wait {}", m.mean_wait);
                ensure!(m.mean_response >= m.mean_wait, "response below wait");
            }
            Ok(())
        },
    );
}

/// The event engine delivers every event exactly once, in time order.
#[test]
fn engine_delivers_in_order() {
    checker("engine_delivers_in_order").run(
        vec_of(u64_range(0, 1_000_000), 1, 100),
        |delays: &Vec<u64>| {
            let mut eng: Engine<usize> = Engine::new();
            for (i, &d) in delays.iter().enumerate() {
                eng.schedule(SimDuration::from_nanos(d), i);
            }
            let mut seen = vec![false; delays.len()];
            let mut last = 0u64;
            while let Some((t, ev)) = eng.next() {
                ensure!(t.as_nanos() >= last, "time went backwards");
                last = t.as_nanos();
                ensure!(!seen[ev], "event {ev} delivered twice");
                seen[ev] = true;
            }
            ensure!(seen.iter().all(|&s| s), "some event was never delivered");
            Ok(())
        },
    );
}

/// Welford tally agrees with direct two-pass computation.
#[test]
fn tally_matches_two_pass() {
    checker("tally_matches_two_pass").run(
        vec_of(f64_range(-1e6, 1e6), 2, 200),
        |data: &Vec<f64>| {
            let mut tally = Tally::new();
            for &x in data {
                tally.record(x);
            }
            let mean = data.iter().sum::<f64>() / data.len() as f64;
            let var =
                data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
            ensure!(
                (tally.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
                "mean {} vs {mean}",
                tally.mean()
            );
            ensure!(
                (tally.variance() - var).abs() < 1e-5 * (1.0 + var.abs()),
                "variance {} vs {var}",
                tally.variance()
            );
            Ok(())
        },
    );
}

/// Trace characterization never panics on arbitrary record orderings —
/// including duplicate timestamps and fully reversed input — and the
/// derived interarrival features are non-negative with a positive,
/// finite arrival rate (regression for the zero-span / unsorted-input
/// edge cases in `characterize.rs`).
#[test]
fn characterization_tolerates_any_record_order() {
    checker("characterization_tolerates_any_record_order").run(
        vec_of(
            zip3(
                u64_range(0, 1_000), // timestamps: a tight range forces duplicates
                u64_range(0, 100_000),
                u64_range(1, 1 << 20),
            ),
            1,
            80,
        ),
        |recs: &Vec<(u64, u64, u64)>| {
            let storage: Vec<StorageRecord> = recs
                .iter()
                .enumerate()
                .map(|(i, &(ts, lbn, size))| StorageRecord {
                    ts_nanos: ts,
                    lbn,
                    size,
                    op: if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                    request_id: i as u64,
                })
                .collect();
            let sp = storage_profile(&storage).expect("non-empty storage trace");
            ensure!(sp.count == recs.len(), "dropped records");
            if let Some(ia) = &sp.interarrival {
                ensure!(ia.mean >= 0.0, "negative mean interarrival {}", ia.mean);
            }
            let network: Vec<NetworkRecord> = recs
                .iter()
                .enumerate()
                .map(|(i, &(ts, _, size))| NetworkRecord {
                    ts_nanos: ts,
                    size,
                    direction: Direction::Ingress,
                    request_id: i as u64,
                })
                .collect();
            let ap = arrival_profile(&network).expect("non-empty ingress trace");
            ensure!(
                ap.interarrivals.iter().all(|&g| g >= 0.0),
                "negative interarrival"
            );
            ensure!(
                ap.rate_per_sec > 0.0 && ap.rate_per_sec.is_finite(),
                "degenerate rate {}",
                ap.rate_per_sec
            );
            Ok(())
        },
    );
}

/// Percentiles are monotone in p and bounded by min/max.
#[test]
fn percentiles_monotone() {
    checker("percentiles_monotone").run(
        zip3(
            vec_of(f64_range(-1e3, 1e3), 1, 100),
            f64_range(0.0, 100.0),
            f64_range(0.0, 100.0),
        ),
        |(data, p1, p2): &(Vec<f64>, f64, f64)| {
            let (lo, hi) = if p1 <= p2 { (*p1, *p2) } else { (*p2, *p1) };
            let a = percentile(data, lo);
            let b = percentile(data, hi);
            ensure!(a <= b + 1e-12, "p{lo} = {a} above p{hi} = {b}");
            let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            ensure!(a >= min - 1e-12 && b <= max + 1e-12, "percentiles outside [min, max]");
            Ok(())
        },
    );
}

/// The shard mailbox exchange delivers every message to its destination
/// in canonical `(time, shard, seq)` order, conserves the message count,
/// and is invariant under the order outboxes reach the barrier — the
/// invariant `kooza-gfs`'s sharded cluster determinism rests on.
#[test]
fn mailbox_exchange_is_canonical_and_permutation_invariant() {
    use kooza_sim::{Envelope, ShardedEngine};
    checker("mailbox_exchange_canonical").run(
        zip3(
            usize_range(1, 6), // shard count
            // messages: (sender, destination, send-time offset) triples,
            // folded into range by the property so every case is valid.
            vec_of(zip3(usize_range(0, 63), usize_range(0, 63), u64_range(0, 500)), 0, 120),
            u64_range(0, 3), // extra empty windows to interleave
            ),
        |(n_shards, sends, spins): &(usize, Vec<(usize, usize, u64)>, u64)| {
            let n = *n_shards;
            let run = |permute: bool| -> (Vec<Vec<Envelope<u64>>>, u64) {
                let mut eng: ShardedEngine<u64> =
                    ShardedEngine::new(n, SimDuration::from_micros(10));
                let mut boxes = eng.outboxes();
                for _ in 0..*spins {
                    let _ = eng.exchange(boxes.iter_mut());
                }
                for (i, &(from, to, at)) in sends.iter().enumerate() {
                    boxes[from % n].send(to % n, kooza_sim::SimTime::from_nanos(at), i as u64);
                }
                let inboxes = if permute {
                    // Hand the outboxes over in reverse shard order.
                    eng.exchange(boxes.iter_mut().rev())
                } else {
                    eng.exchange(boxes.iter_mut())
                };
                (inboxes, eng.messages())
            };
            let (inboxes, messages) = run(false);
            let (permuted, _) = run(true);
            ensure!(inboxes == permuted, "outbox handover order leaked into delivery");
            let delivered: usize = inboxes.iter().map(Vec::len).sum();
            ensure!(delivered == sends.len(), "{delivered} of {} delivered", sends.len());
            ensure!(messages == sends.len() as u64, "message counter drifted");
            for (to, inbox) in inboxes.iter().enumerate() {
                for pair in inbox.windows(2) {
                    let (a, b) = (&pair[0], &pair[1]);
                    ensure!(
                        (a.at, a.from, a.seq) < (b.at, b.from, b.seq),
                        "inbox {to} out of canonical order: \
                         ({:?},{},{}) !< ({:?},{},{})",
                        a.at, a.from, a.seq, b.at, b.from, b.seq
                    );
                }
                // Every delivered payload really was addressed here.
                for env in inbox {
                    let (_, sent_to, _) = sends[env.msg as usize];
                    ensure!(sent_to % n == to, "message {} leaked to shard {to}", env.msg);
                }
            }
            Ok(())
        },
    );
}

/// Values a spec knob may be handed instead of an ordinary one: tiny,
/// huge, negative and non-finite numbers, integers at and past the
/// `u32`/`u64` limits, and junk.
const EXTREME_VALUES: &[&str] = &[
    "0", "-1", "1e-300", "1e-9", "1e6", "1e300", "1e308", "inf", "-inf", "NaN", "4294967295",
    "18446744073709551616", "", "x",
];

/// Every key `--faults` accepts, with an ordinary value, plus one key it
/// does not accept.
const FAULT_KEYS: &[(&str, &str)] = &[
    ("mttf", "3"),
    ("mttr", "0.5"),
    ("slow", "2"),
    ("degraded", "1"),
    ("drop", "0.02"),
    ("timeout", "0.4"),
    ("backoff", "2"),
    ("retries", "10"),
    ("batch", "4"),
    ("detect", "0.1"),
    ("seed", "7"),
    ("warp", "1"),
];

/// `--shards` values; the empty string leaves the option out.
const SHARD_VALUES: &[&str] =
    &["", "auto", "1", "2", "4", "8", "0", "-1", "1e3", "18446744073709551615", "x"];

/// An extreme value one time in three (`roll == 2`), else the ordinary
/// one; shrinking rolls toward 0, so counterexamples keep only the
/// extremes that matter.
fn spec_value(roll: u64, ordinary: &str, extreme: &str) -> String {
    if roll == 2 { extreme } else { ordinary }.to_string()
}

/// Every `--faults`/`--topology`/`--shards` string `kooza simulate`
/// accepts runs a tiny cluster to completion; every other one is a typed
/// error. Neither may panic.
#[test]
fn spec_strings_are_rejected_or_run() {
    let extreme = || choice(EXTREME_VALUES.to_vec());
    checker("spec_strings_are_rejected_or_run").run(
        zip3(
            // --faults: up to four key=value pairs (none: option left out).
            vec_of(zip3(usize_range(0, FAULT_KEYS.len()), u64_range(0, 3), extreme()), 0, 4),
            // --topology: left out, `none`, or rack:<spr>:<oversub>.
            zip6(
                u64_range(0, 4),
                u64_range(1, 4),
                u64_range(0, 3),
                extreme(),
                u64_range(0, 3),
                extreme(),
            ),
            choice(SHARD_VALUES.to_vec()),
        ),
        |(faults, (topology, spr_ordinary, spr_roll, spr, oversub_roll, oversub), shards)| {
            let out = std::env::temp_dir()
                .join(format!("kooza-spec-property-{}.jsonl", std::process::id()));
            let mut args: Vec<String> = ["simulate", "--servers", "4", "--requests", "20", "--out"]
                .map(String::from)
                .into();
            args.push(out.to_string_lossy().into_owned());
            if !faults.is_empty() {
                let pairs: Vec<String> = faults
                    .iter()
                    .map(|&(key, roll, extreme)| {
                        let (key, ordinary) = FAULT_KEYS[key];
                        format!("{key}={}", spec_value(roll, ordinary, extreme))
                    })
                    .collect();
                args.extend(["--faults".to_string(), pairs.join(",")]);
            }
            match topology {
                0 => {}
                1 => args.extend(["--topology".to_string(), "none".to_string()]),
                _ => args.extend([
                    "--topology".to_string(),
                    format!(
                        "rack:{}:{}",
                        spec_value(*spr_roll, &spr_ordinary.to_string(), spr),
                        spec_value(*oversub_roll, "1.5", oversub)
                    ),
                ]),
            }
            if !shards.is_empty() {
                args.extend(["--shards".to_string(), shards.to_string()]);
            }
            let ran = std::panic::catch_unwind(|| kooza_cli::run(&args));
            let _ = std::fs::remove_file(&out);
            ensure!(ran.is_ok(), "`kooza {}` panicked", args.join(" "));
            Ok(())
        },
    );
}
