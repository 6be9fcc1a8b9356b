//! The delivery-boundary divergences between one shard (Direct delivery)
//! and N shards (Barrier delivery), pinned directly rather than only
//! through golden bytes.
//!
//! Divergence (a), cancel salvage: when a timeout cancels an attempt that
//! already reached its server, Direct folds the attempt's progress back
//! into the request, so a retried request's CPU time and span tree include
//! the cancelled attempt. Barrier drops it: a retried request reports one
//! attempt's CPU and no serving phase before its `fault.retry`.
//!
//! Uses `tests/shard_determinism.rs`'s fault-injected configuration.

use std::collections::{BTreeSet, HashMap};

use kooza_gfs::{Cluster, ClusterConfig, ClusterOutcome, FaultSpec, WorkloadMix};

const SEED: u64 = 7011;

fn faulty_run(shards: usize) -> ClusterOutcome {
    let mut config = ClusterConfig::cluster(12);
    config.workload = WorkloadMix {
        n_chunks: 400,
        mean_interarrival_secs: 0.05,
        ..WorkloadMix::mixed()
    };
    config.faults = Some(
        FaultSpec::parse("mttf=3,mttr=0.5,timeout=0.4,retries=10,detect=0.1")
            .expect("valid fault spec"),
    );
    Cluster::new(&config)
        .expect("config")
        .run_sharded(400, SEED + 4, shards)
}

/// The request ids showing each divergence (a) symptom in one run.
struct Salvage {
    /// Completed retried requests whose CPU exceeds one attempt's.
    cumulative_cpu: BTreeSet<u64>,
    /// Requests whose span tree has a serving phase before a `fault.retry`.
    serving_before_retry: BTreeSet<u64>,
}

fn salvage(out: &ClusterOutcome) -> Salvage {
    // One attempt's CPU per request class, from requests that never
    // retried; the CPU model is deterministic, so each class agrees.
    let mut one_attempt: HashMap<(bool, u64), u64> = HashMap::new();
    for r in out.requests.iter().filter(|r| r.retries == 0 && !r.failed) {
        let cpu = *one_attempt
            .entry((r.is_read, r.size))
            .or_insert(r.cpu_busy_nanos);
        assert_eq!(
            cpu, r.cpu_busy_nanos,
            "unretried requests of a class disagree"
        );
    }
    let retried: Vec<_> = out
        .requests
        .iter()
        .filter(|r| r.retries > 0 && !r.failed)
        .collect();
    assert!(!retried.is_empty(), "the fault plan caused no retries");
    let cumulative_cpu = retried
        .iter()
        .filter(|r| r.cpu_busy_nanos > one_attempt[&(r.is_read, r.size)])
        .map(|r| r.id)
        .collect();
    let client_side = ["master.lookup", "fault.retry"];
    let serving_before_retry = out
        .trace
        .span_trees()
        .iter()
        .filter(|tree| {
            let phases = tree.phase_sequence();
            let last_retry = phases.iter().rposition(|&p| p == "fault.retry");
            last_retry.is_some_and(|i| phases[..i].iter().any(|p| !client_side.contains(p)))
        })
        .map(|tree| tree.trace_id().0)
        .collect();
    Salvage {
        cumulative_cpu,
        serving_before_retry,
    }
}

#[test]
fn direct_delivery_salvages_cancelled_attempts() {
    let s = salvage(&faulty_run(1));
    let both: Vec<_> = s
        .cumulative_cpu
        .intersection(&s.serving_before_retry)
        .collect();
    assert!(
        !both.is_empty(),
        "no retried request carries a cancelled attempt's CPU and phases \
         (cumulative CPU: {:?}, phases kept: {:?})",
        s.cumulative_cpu,
        s.serving_before_retry
    );
}

#[test]
fn barrier_delivery_drops_cancelled_attempts() {
    let s = salvage(&faulty_run(4));
    assert!(
        s.cumulative_cpu.is_empty(),
        "retried requests report more than one attempt's CPU: {:?}",
        s.cumulative_cpu
    );
    assert!(
        s.serving_before_retry.is_empty(),
        "span trees keep a cancelled attempt's phases: {:?}",
        s.serving_before_retry
    );
}
