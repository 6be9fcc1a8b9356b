//! Replaying synthetic requests against hardware models.
//!
//! The paper validates KOOZA by checking that "requests generated using the
//! model have the same features and performance metrics as the original
//! requests" — performance means latency on the *same* platform. This
//! module replays [`SyntheticRequest`]s through the exact hardware models
//! the GFS simulator uses (disk with persistent head position, banked
//! memory, latency+bandwidth links), so a model that generates the right
//! per-subsystem demands gets the right latency, and one that mis-orders
//! or mis-correlates demands does not.
//!
//! Replay is loaded: requests arrive at their generated inter-arrival
//! times and queue for the CPU, disk and NIC, as in the simulator, so a
//! single isolated request costs exactly the sum of its phases. Hardware
//! state (disk head, memory bank) persists across requests, so locality
//! still matters.

use kooza_gfs::{ClusterConfig, CpuParams, DiskParams, LinkParams, MemoryParams};
use kooza_gfs::{DiskModel, LinkModel, MemoryModel};

use crate::{PhaseDemand, SyntheticRequest};

/// Hardware parameters used for replay. Construct from the same
/// [`ClusterConfig`] that produced the training trace to validate
/// model fidelity, or from a *different* one to run what-if server
/// configuration studies (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub struct ReplayConfig {
    /// Disk parameters.
    pub disk: DiskParams,
    /// Memory parameters.
    pub memory: MemoryParams,
    /// Link parameters.
    pub link: LinkParams,
    /// CPU parameters (the core count sizes the replay CPU pool).
    pub cpu: CpuParams,
}

impl From<&ClusterConfig> for ReplayConfig {
    fn from(c: &ClusterConfig) -> Self {
        ReplayConfig {
            disk: c.disk,
            memory: c.memory,
            link: c.link,
            cpu: c.cpu,
        }
    }
}

/// Replays requests **with contention**: requests arrive at their
/// generated inter-arrival times and queue at the CPU (cores), disk
/// (single spindle) and NIC (one ingress, one egress channel), exactly as
/// in the simulator that produced the training traces. This is the replay
/// the validation and cross-examination harnesses use — original latencies
/// include queueing delay, so faithful synthetic latencies must too.
///
/// `Opaque` phases run without contention (their trained durations already
/// include the queueing observed at trace time).
///
/// Returns per-request latencies in seconds, request order.
pub fn replay_loaded_latency_secs(
    requests: &[SyntheticRequest],
    config: ReplayConfig,
) -> Vec<f64> {
    // The span is recorded only on the observability owner thread; from
    // `par_map` workers (per-model cross-exam, per-case validation) the
    // closure still runs and the metrics below still commute.
    kooza_obs::global::stage("replay", || replay_loaded_impl(requests, config))
}

fn replay_loaded_impl(requests: &[SyntheticRequest], config: ReplayConfig) -> Vec<f64> {
    use kooza_sim::{Engine, ServerPool, SimDuration, SimTime};

    #[derive(Debug)]
    enum Ev {
        Start { req: usize, phase: usize },
        Done { req: usize, phase: usize },
    }

    let mut engine: Engine<Ev> = Engine::new();
    let mut disk = DiskModel::new(config.disk);
    let mut memory = MemoryModel::new(config.memory);
    let link = LinkModel::new(config.link);
    let mut cpu_pool: ServerPool<(usize, usize)> = ServerPool::new(config.cpu.cores.max(1));
    let mut disk_pool: ServerPool<(usize, usize)> = ServerPool::new(1);
    let mut net_in_pool: ServerPool<(usize, usize)> = ServerPool::new(1);
    let mut net_out_pool: ServerPool<(usize, usize)> = ServerPool::new(1);

    let mut start_times = vec![SimTime::ZERO; requests.len()];
    let mut latencies = vec![f64::NAN; requests.len()];

    // Schedule arrivals at cumulative inter-arrival offsets.
    let mut t = SimTime::ZERO;
    for (i, r) in requests.iter().enumerate() {
        t += SimDuration::from_secs_f64(r.interarrival_secs.max(0.0));
        engine.schedule_at(t, Ev::Start { req: i, phase: 0 });
        start_times[i] = t;
    }

    while let Some((now, ev)) = engine.next() {
        match ev {
            Ev::Start { req, phase } => {
                let Some(demand) = requests[req].phases.get(phase) else {
                    latencies[req] = (now - start_times[req]).as_secs_f64();
                    continue;
                };
                match demand {
                    PhaseDemand::NetworkIn { bytes } => {
                        if let Some((r, p)) = net_in_pool.arrive(now, (req, phase)) {
                            let bytes = match requests[r].phases[p] {
                                PhaseDemand::NetworkIn { bytes } => bytes,
                                _ => *bytes,
                            };
                            engine.schedule(link.transfer(bytes), Ev::Done { req: r, phase: p });
                        }
                    }
                    PhaseDemand::NetworkOut { .. } => {
                        if let Some((r, p)) = net_out_pool.arrive(now, (req, phase)) {
                            let bytes = match requests[r].phases[p] {
                                PhaseDemand::NetworkOut { bytes } => bytes,
                                _ => 0,
                            };
                            engine.schedule(link.transfer(bytes), Ev::Done { req: r, phase: p });
                        }
                    }
                    PhaseDemand::Cpu { .. } => {
                        if let Some((r, p)) = cpu_pool.arrive(now, (req, phase)) {
                            let busy = match requests[r].phases[p] {
                                PhaseDemand::Cpu { busy_nanos } => busy_nanos,
                                _ => 0,
                            };
                            engine.schedule(
                                SimDuration::from_nanos(busy),
                                Ev::Done { req: r, phase: p },
                            );
                        }
                    }
                    PhaseDemand::Disk { .. } => {
                        if let Some((r, p)) = disk_pool.arrive(now, (req, phase)) {
                            if let PhaseDemand::Disk { lbn, bytes, .. } = requests[r].phases[p] {
                                engine.schedule(
                                    disk.access(lbn, bytes),
                                    Ev::Done { req: r, phase: p },
                                );
                            }
                        }
                    }
                    PhaseDemand::Memory { bank, bytes, .. } => {
                        engine.schedule(memory.access(*bank, *bytes), Ev::Done { req, phase });
                    }
                    PhaseDemand::Opaque { duration_nanos } => {
                        engine.schedule(
                            SimDuration::from_nanos(*duration_nanos),
                            Ev::Done { req, phase },
                        );
                    }
                }
            }
            Ev::Done { req, phase } => {
                // Release the resource this phase held; start the next
                // queued job on it.
                match requests[req].phases[phase] {
                    PhaseDemand::NetworkIn { .. } => {
                        if let Some((r, p)) = net_in_pool.complete(now) {
                            if let PhaseDemand::NetworkIn { bytes } = requests[r].phases[p] {
                                engine
                                    .schedule(link.transfer(bytes), Ev::Done { req: r, phase: p });
                            }
                        }
                    }
                    PhaseDemand::NetworkOut { .. } => {
                        if let Some((r, p)) = net_out_pool.complete(now) {
                            if let PhaseDemand::NetworkOut { bytes } = requests[r].phases[p] {
                                engine
                                    .schedule(link.transfer(bytes), Ev::Done { req: r, phase: p });
                            }
                        }
                    }
                    PhaseDemand::Cpu { .. } => {
                        if let Some((r, p)) = cpu_pool.complete(now) {
                            if let PhaseDemand::Cpu { busy_nanos } = requests[r].phases[p] {
                                engine.schedule(
                                    SimDuration::from_nanos(busy_nanos),
                                    Ev::Done { req: r, phase: p },
                                );
                            }
                        }
                    }
                    PhaseDemand::Disk { .. } => {
                        if let Some((r, p)) = disk_pool.complete(now) {
                            if let PhaseDemand::Disk { lbn, bytes, .. } = requests[r].phases[p] {
                                engine
                                    .schedule(disk.access(lbn, bytes), Ev::Done { req: r, phase: p });
                            }
                        }
                    }
                    PhaseDemand::Memory { .. } | PhaseDemand::Opaque { .. } => {}
                }
                // Advance the request.
                if phase + 1 < requests[req].phases.len() {
                    engine.schedule(SimDuration::ZERO, Ev::Start { req, phase: phase + 1 });
                } else {
                    latencies[req] = (now - start_times[req]).as_secs_f64();
                }
            }
        }
    }
    kooza_obs::global::with_registry(|reg| {
        /// Replay latency buckets, nanoseconds: 1µs … 10s by decades.
        const LATENCY_BOUNDS: &[u64] = &[
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
            1_000_000_000,
            10_000_000_000,
        ];
        reg.counter_add("replay.requests", requests.len() as u64);
        reg.counter_add("replay.events", engine.processed());
        reg.gauge_max("replay.pending_high_water", engine.pending_high_water() as f64);
        let histogram = reg.histogram_mut("replay.latency_nanos", LATENCY_BOUNDS);
        for &latency in &latencies {
            if latency.is_finite() && latency >= 0.0 {
                histogram.record((latency * 1e9) as u64);
            }
        }
    });
    latencies
}

#[cfg(test)]
mod tests {
    use super::*;
    use kooza_trace::record::IoOp;

    fn read_request(size: u64, lbn: u64) -> SyntheticRequest {
        SyntheticRequest {
            interarrival_secs: 0.01,
            phases: vec![
                PhaseDemand::NetworkIn { bytes: 1024 },
                PhaseDemand::Cpu { busy_nanos: 50_000 },
                PhaseDemand::Memory { bank: 0, bytes: size / 4, op: IoOp::Read },
                PhaseDemand::Disk { lbn, bytes: size, op: IoOp::Read },
                PhaseDemand::Cpu { busy_nanos: 50_000 },
                PhaseDemand::NetworkOut { bytes: size },
            ],
        }
    }

    /// Loaded-replay latency of each request, alone on fresh hardware.
    fn replay(requests: &[SyntheticRequest]) -> Vec<f64> {
        replay_loaded_latency_secs(requests, ReplayConfig::default())
    }

    #[test]
    fn latency_is_sum_of_phases() {
        let req = SyntheticRequest {
            interarrival_secs: 0.0,
            phases: vec![
                PhaseDemand::Cpu { busy_nanos: 1_000_000 },
                PhaseDemand::Opaque { duration_nanos: 2_000_000 },
            ],
        };
        let lat = replay(&[req])[0];
        assert!((lat - 0.003).abs() < 1e-12, "lat {lat}");
    }

    #[test]
    fn bigger_requests_take_longer() {
        let small = replay(&[read_request(64 * 1024, 1_000_000)])[0];
        let big = replay(&[read_request(4 * 1024 * 1024, 1_000_000)])[0];
        assert!(big > 3.0 * small, "small {small} big {big}");
    }

    #[test]
    fn disk_head_state_carries_across_requests() {
        // Request far away, then an adjacent one: the second is cheaper
        // than a far jump would be.
        let first = read_request(4096, 1_000_000_000);
        let near = replay(&[first.clone(), read_request(4096, 1_000_000_008)])[1];
        let far = replay(&[first, read_request(4096, 1)])[1];
        assert!(near < far, "near {near} far {far}");
    }

    #[test]
    fn what_if_config_changes_latency() {
        // §5 use case: the same synthetic workload replayed against a
        // faster disk shows the win without touching application code.
        let reqs: Vec<SyntheticRequest> =
            (0..50).map(|i| read_request(1024 * 1024, i * 1_000_000)).collect();
        let slow = replay(&reqs);
        let mut fast_cfg = ReplayConfig::default();
        fast_cfg.disk.transfer_bytes_per_sec = 500e6; // SSD-class streaming
        fast_cfg.disk.seek_base_secs = 0.0001;
        fast_cfg.disk.seek_full_secs = 0.0002;
        let fast = replay_loaded_latency_secs(&reqs, fast_cfg);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&fast) < mean(&slow) * 0.7, "fast {} slow {}", mean(&fast), mean(&slow));
    }
}
