//! Multi-server modeling: one KOOZA instance per chunkserver.
//!
//! §4: "Scaling to multiple servers in order to simulate real-application
//! scenarios requires multiple instances of the model." A [`KoozaFleet`]
//! trains one [`Kooza`] per server from the per-server trace split the GFS
//! simulator provides, and generates per-server synthetic streams — the
//! unit of large-scale DC simulation §5 argues for.
//!
//! Training and generation fan out over `kooza-exec`: each server is an
//! independent task, per-task randomness comes from serially pre-forked
//! child generators, and results merge in server order — so the fleet is
//! bit-identical at any thread count.

use kooza_sim::rng::Rng64;
use kooza_trace::TraceSet;

use crate::kooza::Kooza;
use crate::{ModelError, Result, SyntheticRequest, WorkloadModel};

/// One trained model per server.
#[derive(Debug)]
pub struct KoozaFleet {
    servers: Vec<Kooza>,
}

impl KoozaFleet {
    /// Trains one model per server trace — for a simulated cluster,
    /// [`kooza_gfs::ClusterOutcome::server_traces`]. Per-server fits run
    /// in parallel; fitting draws no randomness, so the result is
    /// identical at any thread count.
    ///
    /// Every server must have a trainable trace; a server that saw no
    /// requests is a configuration problem the caller should see, not
    /// silently drop.
    ///
    /// # Errors
    ///
    /// Propagates the first per-server training failure, or errors on an
    /// empty fleet.
    pub fn fit(per_server_traces: &[TraceSet]) -> Result<Self> {
        if per_server_traces.is_empty() {
            return Err(ModelError::InsufficientRequests { needed: 1, got: 0 });
        }
        let servers: Result<Vec<Kooza>> = kooza_obs::global::stage("fleet.train", || {
            kooza_exec::par_map(per_server_traces, Kooza::fit).into_iter().collect()
        });
        let fleet = KoozaFleet { servers: servers? };
        kooza_obs::global::counter_add("fleet.servers_trained", fleet.len() as u64);
        Ok(fleet)
    }

    /// Number of per-server models.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the fleet is empty (never true for a fitted fleet).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The model for one server.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn server(&self, server: usize) -> &Kooza {
        &self.servers[server]
    }

    /// Iterates over the per-server models.
    pub fn iter(&self) -> impl Iterator<Item = &Kooza> {
        self.servers.iter()
    }

    /// Total trained parameters across the fleet — the paper's scalability
    /// column: per-server models grow linearly in server count, not with
    /// cross-server state.
    pub fn parameter_count(&self) -> usize {
        self.servers.iter().map(|m| m.parameter_count()).sum()
    }

    /// Generates an independent synthetic stream per server (each server's
    /// arrival process and request mix is its own).
    ///
    /// The child generators are forked from `rng` serially *before* the
    /// parallel fan-out, so the output — and the caller's `rng` state
    /// afterwards — matches the old serial implementation exactly.
    pub fn generate_per_server(
        &self,
        n_per_server: usize,
        rng: &mut Rng64,
    ) -> Vec<Vec<SyntheticRequest>> {
        let children: Vec<Rng64> = self.servers.iter().map(|_| rng.fork()).collect();
        kooza_obs::global::stage("fleet.generate", || {
            kooza_exec::par_map_indexed(&children, |server, child| {
                let mut child = child.clone();
                self.servers[server].generate(n_per_server, &mut child)
            })
        })
    }

    /// Aggregate fleet arrival rate (sum of per-server rates), req/s.
    pub fn aggregate_rate(&self) -> f64 {
        self.servers.iter().map(|m| m.network().mean_rate()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_gfs::{Cluster, ClusterConfig, WorkloadMix};

    fn multi_server_outcome() -> kooza_gfs::ClusterOutcome {
        let mut config = ClusterConfig::cluster(3);
        config.workload = WorkloadMix {
            read_fraction: 1.0,
            mean_interarrival_secs: 0.01,
            n_chunks: 4000,
            zipf_skew: 0.8,
            ..WorkloadMix::read_heavy()
        };
        Cluster::new(&config).unwrap().run(3000, 2200)
    }

    #[test]
    fn per_server_views_partition_the_cluster_trace() {
        let outcome = multi_server_outcome();
        let traces = outcome.server_traces();
        assert_eq!(traces.len(), 3);
        let total_net: usize = traces.iter().map(|t| t.network.len()).sum();
        assert_eq!(total_net, outcome.trace.network.len());
        let total_cpu: usize = traces.iter().map(|t| t.cpu.len()).sum();
        assert_eq!(total_cpu, outcome.trace.cpu.len());
        // Reads spread across replicas: every server served a share.
        for t in &traces {
            assert!(t.cpu.len() > 300, "server saw only {} requests", t.cpu.len());
        }
    }

    #[test]
    fn fleet_trains_and_generates() {
        let outcome = multi_server_outcome();
        let fleet = KoozaFleet::fit(&outcome.server_traces()).unwrap();
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        let mut rng = Rng64::new(1);
        let streams = fleet.generate_per_server(200, &mut rng);
        assert_eq!(streams.len(), 3);
        for stream in &streams {
            assert_eq!(stream.len(), 200);
        }
        assert!(fleet.parameter_count() > 3 * 1000);
    }

    #[test]
    fn parallel_generation_is_deterministic() {
        let outcome = multi_server_outcome();
        let fleet = KoozaFleet::fit(&outcome.server_traces()).unwrap();
        // Same seed → identical streams, and the caller's RNG leaves in
        // the same state (children are forked serially before the fan-
        // out). Thread-count invariance of the whole pipeline is pinned
        // by the umbrella determinism test, which owns its process.
        let mut rng_a = Rng64::new(77);
        let mut rng_b = Rng64::new(77);
        let a = fleet.generate_per_server(50, &mut rng_a);
        let b = fleet.generate_per_server(50, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn aggregate_rate_matches_cluster_rate() {
        let outcome = multi_server_outcome();
        let fleet = KoozaFleet::fit(&outcome.server_traces()).unwrap();
        // Cluster offered 100 req/s; per-server models should sum back.
        let agg = fleet.aggregate_rate();
        assert!((agg - 100.0).abs() < 12.0, "aggregate rate {agg}");
    }

    #[test]
    fn per_server_models_reflect_per_server_load() {
        let outcome = multi_server_outcome();
        let fleet = KoozaFleet::fit(&outcome.server_traces()).unwrap();
        for (i, model) in fleet.iter().enumerate() {
            let rate = model.network().mean_rate();
            // 3-way-replicated reads split roughly evenly.
            assert!((15.0..60.0).contains(&rate), "server {i} rate {rate}");
        }
    }

    #[test]
    fn owned_trace_fit_still_works() {
        // The fleet is exactly one independent fit per server trace.
        let outcome = multi_server_outcome();
        let traces = outcome.server_traces();
        let fleet = KoozaFleet::fit(&traces).unwrap();
        assert_eq!(fleet.len(), 3);
        for (model, trace) in fleet.iter().zip(&traces) {
            let solo = Kooza::fit(trace).unwrap();
            assert_eq!(model.parameter_count(), solo.parameter_count());
            assert_eq!(model.trained_requests(), solo.trained_requests());
        }
    }

    #[test]
    fn empty_fleet_rejected() {
        assert!(KoozaFleet::fit(&[]).is_err());
        // A server with an empty trace fails loudly.
        let outcome = multi_server_outcome();
        let mut traces = outcome.server_traces();
        traces.push(TraceSet::new());
        assert!(KoozaFleet::fit(&traces).is_err());
    }
}
