//! The four benchmark workloads: cluster configurations, set-up, one
//! iteration of each workload's body, and the output digest that every
//! iteration is checked against.
//!
//! Every call into a library layer is wrapped in a [`Recorder`] span named
//! after that layer, so a traced run can attribute an iteration's wall
//! time to `kooza_gfs`, `kooza_trace`, `kooza` (core) and the benchmark's
//! own checking.

use std::fmt::Write as _;

use kooza::class::assemble_observations;
use kooza::crossexam::{cross_examine, CrossExamTable};
use kooza::validate::{validate, ValidationReport};
use kooza::{InBreadthModel, InDepthModel, Kooza, ReplayConfig, WorkloadModel};
use kooza_gfs::{
    default_shards, Cluster, ClusterConfig, ClusterOutcome, FaultSpec, Topology, WorkloadMix,
};
use kooza_sim::rng::Rng64;
use kooza_trace::TraceSet;

use crate::spans::Recorder;

/// Table 2 bounds the paper's result rests on (percent).
pub const TABLE2_FEATURE_BOUND_PCT: f64 = 1.0;
pub const TABLE2_LATENCY_BOUND_PCT: f64 = 7.0;
/// Synthetic requests generated per observed request for Table 2. On the
/// mixed workload (70% 64 KB reads, 30% 1 MB writes) a synthetic sample
/// as large as the trace misses the 1% feature bound on 35 of seeds
/// 0..100 at 20k requests, from the sampled read/write mix alone (seed 7:
/// request size off by 1.25%, storage size by 1.49%). Sixteen times as
/// many keeps every one of those seeds under 0.5%.
pub const TABLE2_SYNTHETIC_PER_REQUEST: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimTraced,
    SimSharded,
    SimRackFaults,
    ModelPipeline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimTraced,
        Workload::SimSharded,
        Workload::SimRackFaults,
        Workload::ModelPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimTraced => "sim_traced",
            Workload::SimSharded => "sim_sharded",
            Workload::SimRackFaults => "sim_rack_faults",
            Workload::ModelPipeline => "model_pipeline",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests simulated per stream at benchmark size.
    pub fn requests(self) -> u64 {
        match self {
            Workload::SimTraced | Workload::SimSharded => 50_000,
            // At 2 ms gaps the faulty rack is overloaded: its backlog, and
            // the host cost per request, grow with length (in-flight flows
            // pile up), so streams stay short (2 s simulated).
            Workload::SimRackFaults => 1_000,
            Workload::ModelPipeline => 20_000,
        }
    }

    /// The simulated cluster. Arrivals are an open loop: Poisson with the
    /// workload's mean gap, independent of how fast requests complete.
    pub fn config(self) -> ClusterConfig {
        if self == Workload::ModelPipeline {
            let mut config = ClusterConfig::small();
            config.workload = WorkloadMix {
                n_chunks: 120,
                ..WorkloadMix::mixed()
            };
            return config;
        }
        let mut config = ClusterConfig::cluster(64);
        config.workload = WorkloadMix {
            mean_interarrival_secs: 0.0008,
            n_chunks: 20_000,
            ..WorkloadMix::mixed()
        };
        if self == Workload::SimRackFaults {
            config.workload.mean_interarrival_secs = 0.002;
            config.topology = Topology::Rack {
                servers_per_rack: 4,
                oversub: 2.0,
            };
            config.faults = Some(FaultSpec::default());
            config.trace_sampling = 1000;
        }
        config
    }

    /// Engine shards: the CLI's default for the sharded workload, a single
    /// engine otherwise.
    pub fn shards(self) -> usize {
        match self {
            Workload::SimSharded => default_shards(&self.config()),
            _ => 1,
        }
    }

    /// Topology as the CLI spells it.
    pub fn topology(self) -> String {
        match self.config().topology {
            Topology::None => "none".to_string(),
            Topology::Rack {
                servers_per_rack,
                oversub,
            } => format!("rack:{servers_per_rack}:{oversub}"),
        }
    }

    /// One set-up: the configuration, then `Cluster::new` (config
    /// validation and chunk placement).
    pub fn setup(self, rec: &mut Recorder) -> Result<Cluster, String> {
        rec.span("setup", |rec| {
            let config = self.config();
            rec.span("gfs.cluster_new", |_| Cluster::new(&config))
                .map_err(|e| e.to_string())
        })
    }

    /// Independent request streams per iteration: the seed-to-seed spread
    /// of a faulty rack run's host cost is wide, so each iteration averages
    /// several streams.
    pub fn streams(self) -> u64 {
        match self {
            Workload::SimRackFaults => 8,
            _ => 1,
        }
    }

    /// One iteration of the workload's body: [`Workload::streams`] runs of
    /// `n` requests each, with seeds derived from `seed`. The returned
    /// digest describes the simulated results; equal inputs must give
    /// equal digests, at any thread count.
    pub fn iterate(
        self,
        cluster: &mut Cluster,
        n: u64,
        seed: u64,
        rec: &mut Recorder,
    ) -> Result<Output, String> {
        let mut output = Output {
            digest: String::new(),
            table2: None,
        };
        for stream in 0..self.streams() {
            let seed = seed.wrapping_mul(self.streams()).wrapping_add(stream);
            self.run_stream(cluster, n, seed, rec, &mut output)?;
        }
        Ok(output)
    }

    fn run_stream(
        self,
        cluster: &mut Cluster,
        n: u64,
        seed: u64,
        rec: &mut Recorder,
        output: &mut Output,
    ) -> Result<(), String> {
        let shards = self.shards();
        let outcome = rec.span("gfs.run", |_| {
            if shards > 1 {
                cluster.run_sharded(n, seed, shards)
            } else {
                cluster.run(n, seed)
            }
        });
        let ktc = rec.span("trace.ktc_encode", |_| {
            let mut buf = Vec::new();
            outcome
                .trace
                .write_ktc(&mut buf)
                .map(|()| buf)
                .map_err(|e| e.to_string())
        })?;
        if self == Workload::ModelPipeline {
            model_pipeline(cluster.config(), &outcome, &ktc, n, seed, rec, output)?;
        } else {
            rec.span("bench.check", |_| {
                sim_digest(&mut output.digest, &outcome, &ktc, n)
            })?;
        }
        rec.span("gfs.outcome_drop", |_| drop(outcome));
        rec.span("bench.drop", |_| drop(ktc));
        Ok(())
    }
}

/// What one iteration produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Canonical text of the simulated result (see [`digest_hash`]).
    pub digest: String,
    /// KOOZA's Table 2 max feature and latency variation, percent.
    pub table2: Option<(f64, f64)>,
}

/// The simulate → fit → validate → crossexam chain on a simulated trace.
fn model_pipeline(
    config: &ClusterConfig,
    outcome: &ClusterOutcome,
    ktc: &[u8],
    n: u64,
    seed: u64,
    rec: &mut Recorder,
    output: &mut Output,
) -> Result<(), String> {
    let err = |e: kooza::ModelError| e.to_string();
    let trace = rec
        .span("trace.ktc_decode", |_| TraceSet::read_ktc(ktc))
        .map_err(|e| e.to_string())?;
    let observations = rec
        .span("core.assemble", |_| assemble_observations(&trace))
        .map_err(err)?;
    let kooza = rec
        .span("core.kooza_fit", |_| Kooza::fit(&trace))
        .map_err(err)?;
    let inbreadth = rec
        .span("core.inbreadth_fit", |_| InBreadthModel::fit(&trace))
        .map_err(err)?;
    let indepth = rec
        .span("core.indepth_fit", |_| InDepthModel::fit(&trace))
        .map_err(err)?;
    let replay = ReplayConfig::from(config);
    let synthetic = rec.span("core.generate", |_| {
        let count = observations.len() * TABLE2_SYNTHETIC_PER_REQUEST;
        kooza.generate(count, &mut Rng64::new(seed.wrapping_add(1)))
    });
    let table2 = rec.span("core.validate", |_| {
        validate(&kooza, &observations, &synthetic, replay)
    });
    let table1 = rec.span("core.crossexam", |_| {
        let models: [&dyn WorkloadModel; 3] = [&inbreadth, &indepth, &kooza];
        cross_examine(
            &models,
            &observations,
            replay,
            observations.len(),
            seed.wrapping_add(2),
        )
    });
    rec.span("bench.check", |_| {
        if trace != outcome.trace {
            return Err("KTC round trip changed the trace".to_string());
        }
        sim_digest(&mut output.digest, outcome, ktc, n)?;
        let _ = write!(output.digest, " observations={}", observations.len());
        output.table2 = Some(check_tables(&mut output.digest, &table2, &table1)?);
        Ok(())
    })?;
    rec.span("bench.drop", |_| {
        drop((trace, observations, kooza, inbreadth, indepth, synthetic))
    });
    Ok(())
}

/// Appends the simulated result to `digest` after checking its invariants.
fn sim_digest(
    digest: &mut String,
    outcome: &ClusterOutcome,
    ktc: &[u8],
    n: u64,
) -> Result<(), String> {
    let stats = &outcome.stats;
    let failed = stats.faults.requests_failed;
    if stats.completed + failed != n || outcome.requests.len() as u64 != n {
        return Err(format!(
            "{n} requests issued but {} completed, {failed} failed, {} outcomes",
            stats.completed,
            outcome.requests.len()
        ));
    }
    if outcome.trace.is_empty() || !ktc.starts_with(b"KTC1") {
        return Err("empty trace or KTC stream without its magic".to_string());
    }
    let lat = &stats.latency_secs;
    let bits = |x: Option<f64>| x.map_or(0, f64::to_bits);
    let _ = write!(
        digest,
        "[requests={n} completed={} failed={failed} events={} records={} spans={} ktc_bytes={} ktc_hash={:016x} \
         latency=({} {:016x} {:016x} {:016x} {:016x})]",
        stats.completed,
        stats.events_processed,
        outcome.trace.len(),
        outcome.trace.spans.len(),
        ktc.len(),
        bytes_hash(ktc),
        lat.count(),
        lat.mean().to_bits(),
        lat.variance().to_bits(),
        bits(lat.min()),
        bits(lat.max()),
    );
    Ok(())
}

/// Appends Table 2 and Table 1 rows to `digest` and checks the paper's
/// claims: KOOZA's features within 1% and latency within 7% (Table 2), and
/// KOOZA alone complete (Table 1). Returns KOOZA's Table 2 variations.
fn check_tables(
    digest: &mut String,
    table2: &ValidationReport,
    table1: &CrossExamTable,
) -> Result<(f64, f64), String> {
    for row in &table2.rows {
        let _ = write!(
            digest,
            " t2[{}/{} {:016x} {:016x} {:016x}]",
            row.subsystem,
            row.metric,
            row.original.to_bits(),
            row.synthetic.to_bits(),
            row.variation.to_bits()
        );
    }
    for row in &table1.rows {
        let _ = write!(
            digest,
            " t1[{} {:016x} {:016x} {} {}{}{}]",
            row.model,
            row.feature_error.to_bits(),
            row.latency_ks.to_bits(),
            row.parameter_count,
            u8::from(row.features_check()),
            u8::from(row.time_deps_check()),
            u8::from(row.completeness_check()),
        );
    }
    let feature = table2.max_feature_variation();
    let latency = table2
        .latency_variation()
        .ok_or("Table 2 has no latency row")?;
    if !(feature <= TABLE2_FEATURE_BOUND_PCT && latency <= TABLE2_LATENCY_BOUND_PCT) {
        return Err(format!(
            "Table 2 out of bounds: features {feature}%, latency {latency}%"
        ));
    }
    for row in &table1.rows {
        if row.completeness_check() != (row.model == "kooza") {
            return Err(format!(
                "Table 1 shape broken on {}: {}",
                row.model,
                table1.render()
            ));
        }
    }
    Ok((feature, latency))
}

/// 64-bit FNV-1a over 8-byte words (tail zero-padded): cheap enough to run
/// on every iteration's multi-megabyte KTC stream.
pub fn bytes_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    (h ^ u64::from_le_bytes(tail)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The short form of a digest, as recorded in `expected.txt`.
pub fn digest_hash(digest: &str) -> u64 {
    bytes_hash(digest.as_bytes())
}

/// The recorded digest hash for `(workload, seed)` at benchmark size.
pub fn expected_digest(workload: Workload, seed: u64) -> Option<u64> {
    include_str!("../expected.txt").lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        match (fields.next(), fields.next(), fields.next()) {
            (Some(w), Some(s), Some(h)) if w == workload.name() && s.parse() == Ok(seed) => {
                u64::from_str_radix(h, 16).ok()
            }
            _ => None,
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The thread override and the observability sink are process-wide;
    /// tests that touch either run one at a time.
    pub(crate) static GLOBALS: Mutex<()> = Mutex::new(());

    /// A tenth of the benchmark size; the model pipeline keeps its full
    /// size, which its Table 2 check needs.
    pub(crate) fn smoke_requests(workload: Workload) -> u64 {
        match workload {
            Workload::ModelPipeline => workload.requests(),
            _ => workload.requests() / 10,
        }
    }

    fn smoke(workload: Workload, seed: u64) -> Output {
        let mut rec = Recorder::new(false);
        let mut cluster = workload.setup(&mut rec).expect("set-up");
        workload
            .iterate(&mut cluster, smoke_requests(workload), seed, &mut rec)
            .expect("iteration passes its checks")
    }

    #[test]
    fn every_workload_repeats_its_digest() {
        let _guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        for workload in Workload::ALL {
            let first = smoke(workload, 7);
            assert_eq!(first, smoke(workload, 7), "{}", workload.name());
            assert_ne!(
                first.digest,
                smoke(workload, 8).digest,
                "{} ignores its seed",
                workload.name()
            );
        }
    }

    #[test]
    fn sharded_digest_is_thread_count_invariant() {
        let _guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let before = kooza_exec::thread_override();
        let at = |threads| {
            kooza_exec::set_thread_override(Some(threads));
            smoke(Workload::SimSharded, 3)
        };
        let (one, two) = (at(1), at(2));
        kooza_exec::set_thread_override(before);
        assert_eq!(one, two);
        assert!(Workload::SimSharded.shards() > 1);
    }

    #[test]
    fn hash_covers_every_byte() {
        assert_ne!(bytes_hash(b"KTC1abcdefgh1"), bytes_hash(b"KTC1abcdefgh2"));
        assert_ne!(bytes_hash(b""), bytes_hash(b"\0"));
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
