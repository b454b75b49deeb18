//! The benchmark's workloads. Each one is generated from `--seed` by the
//! benchmark's own generator ([`Rng`], [`scale_free`], [`flaps`]), so the
//! same seed gives the same topology, churn schedule and flow set whatever
//! the emulator's own random streams do. The emulator only ever receives
//! the generated inputs: as a `Scenario` (untraced leg) or through the
//! core constructors (traced leg).

use kollaps_scenario::{Scenario, Workload};
use kollaps_sim::prelude::*;
use kollaps_topology::events::{DynamicAction, DynamicEvent, EventSchedule, LinkChange};
use kollaps_topology::generators;
use kollaps_topology::model::{LinkProperties, NodeId, Topology};

/// One emulation round: the default emulation-loop interval. Both legs
/// advance the clock one round at a time.
pub const ROUND: SimDuration = SimDuration::from_millis(50);

/// The workload names, in the order `--workload` accepts them.
pub const NAMES: [&str; 2] = ["udp-wide", "churn-scalefree"];

/// `Full` is the measured size; `Tiny` is the self-test size (same shape,
/// a few flows, one simulated second).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One declared constant-rate UDP flow, by service name. Every flow runs
/// the whole experiment, from 0 to `duration`.
#[derive(Debug, Clone)]
pub struct Flow {
    pub client: String,
    pub server: String,
    pub rate: Bandwidth,
}

/// A generated workload: everything both legs need to build the same
/// emulation.
#[derive(Debug, Clone)]
pub struct Spec {
    pub topology: Topology,
    pub hosts: usize,
    pub schedule: EventSchedule,
    pub flows: Vec<Flow>,
    pub duration: SimDuration,
}

impl Spec {
    /// Generates workload `name` from `seed`.
    pub fn generate(name: &str, seed: u64, size: Size) -> Result<Spec, String> {
        match name {
            "udp-wide" => Ok(udp_wide(seed, size)),
            "churn-scalefree" => Ok(churn_scalefree(seed, size)),
            other => Err(format!(
                "unknown workload `{other}` (expected one of {})",
                NAMES.join(", ")
            )),
        }
    }

    /// The scenario the untraced leg builds a session from. `threads` is
    /// deliberately never set: the emulator runs at its default.
    pub fn scenario(&self) -> Scenario {
        let duration = self.duration;
        Scenario::from_topology(self.topology.clone())
            .named("perfbench")
            .hosts(self.hosts)
            .step_interval(ROUND)
            .schedule(self.schedule.clone())
            .workloads(
                self.flows.iter().map(move |f| {
                    Workload::iperf_udp(&f.client, &f.server, f.rate).duration(duration)
                }),
            )
    }

    /// Emulation rounds one leg steps through.
    pub fn rounds(&self) -> u64 {
        self.duration.as_nanos().div_ceil(ROUND.as_nanos())
    }
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// emulator's random streams.
struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`.
    fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform latency in 1–10 ms.
    fn latency(&mut self) -> SimDuration {
        SimDuration::from_millis_f64(1.0 + 9.0 * self.unit())
    }

    /// `count` distinct indices of `0..n`, in random order.
    fn distinct(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            all.swap(i, self.below(i + 1));
        }
        all.truncate(count);
        all
    }
}

/// Simulated length of a leg: `full_secs` at full size, one second (20
/// rounds) for the self-test.
fn duration(size: Size, full_secs: u64) -> SimDuration {
    match size {
        Size::Full => SimDuration::from_secs(full_secs),
        Size::Tiny => SimDuration::from_secs(1),
    }
}

/// `pairs`-pair dumbbell: 100 Mb/s, 1 ms access links and a 1 Gb/s, 10 ms
/// trunk between the two bridges.
fn dumbbell(pairs: usize) -> Topology {
    generators::dumbbell(
        pairs,
        Bandwidth::from_mbps(100),
        Bandwidth::from_gbps(1),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    )
    .0
}

/// Flapping of each `(orig, dest)` link over `[0, horizon)`: the horizon
/// is cut into `count` equal slots, and in each slot the link goes down at
/// a seeded uniform time in the slot's first half and comes back `down`
/// later (within the slot). A downed link is removed and restored with its
/// original properties. Event count and down times are fixed, so every
/// seed precomputes the same number of snapshots; the seed moves the
/// times.
fn flaps(
    topology: &Topology,
    links: &[(String, String)],
    count: u32,
    down: SimDuration,
    horizon: SimDuration,
    rng: &mut Rng,
) -> EventSchedule {
    let props = |a: &str, b: &str| {
        let (a, b) = (topology.node_by_name(a)?, topology.node_by_name(b)?);
        topology
            .links_from(a)
            .find(|l| l.to == b)
            .map(|l| l.properties)
    };
    let slot = horizon / u64::from(count);
    let mut events = Vec::new();
    for (orig, dest) in links {
        let forward = props(orig, dest).expect("flapping link exists");
        let backward = props(dest, orig).unwrap_or(forward);
        let restore = LinkChange {
            latency: Some(forward.latency),
            jitter: Some(forward.jitter),
            up: Some(forward.bandwidth),
            down: Some(backward.bandwidth),
            loss: Some(forward.loss),
        };
        for k in 0..u64::from(count) {
            let start = slot * k;
            let leave = start + SimDuration::from_secs_f64(slot.as_secs_f64() * 0.5 * rng.unit());
            let join = (leave + down).min(start + slot);
            events.push(DynamicEvent {
                at: leave,
                action: DynamicAction::LinkLeave {
                    orig: orig.clone(),
                    dest: dest.clone(),
                },
            });
            events.push(DynamicEvent {
                at: join,
                action: DynamicAction::LinkJoin {
                    orig: orig.clone(),
                    dest: dest.clone(),
                    change: restore,
                },
            });
        }
    }
    EventSchedule::from_events(events)
}

/// `count` distinct offsets in `1..n`: client `i` sends to server
/// `(i + offset) % n` for each, so every server receives exactly `count`
/// flows whatever the seed.
fn offsets(rng: &mut Rng, n: usize, count: usize) -> Vec<usize> {
    rng.distinct(n - 1, count)
        .into_iter()
        .map(|o| o + 1)
        .collect()
}

/// 150-pair dumbbell (302 nodes), 8 constant-rate 240 kb/s UDP flows per
/// client (1,200 flows; the seed picks the 8 server offsets) over 4 hosts,
/// 5 s simulated (100 rounds), one seeded access link flapping 4 times
/// (100 ms down).
fn udp_wide(seed: u64, size: Size) -> Spec {
    let (pairs, per_client) = match size {
        Size::Full => (150, 8),
        Size::Tiny => (10, 2),
    };
    let duration = duration(size, 5);
    let topology = dumbbell(pairs);
    let mut rng = Rng::new(seed, 1);
    let offsets = offsets(&mut rng, pairs, per_client);
    let mut flows = Vec::with_capacity(pairs * per_client);
    for client in 0..pairs {
        for offset in &offsets {
            flows.push(Flow {
                client: format!("client-{client}"),
                server: format!("server-{}", (client + offset) % pairs),
                rate: Bandwidth::from_kbps(240),
            });
        }
    }
    let flapping = [(
        format!("client-{}", rng.below(pairs)),
        "bridge-left".to_string(),
    )];
    let schedule = flaps(
        &topology,
        &flapping,
        4,
        SimDuration::from_millis(100),
        duration,
        &mut rng,
    );
    Spec {
        topology,
        hosts: 4,
        schedule,
        flows,
        duration,
    }
}

/// Barabási–Albert graph in the shape of the paper's Table 4 experiment:
/// a third of the `elements` are switches (`sw-<i>`) joined by
/// preferential attachment (two links per new switch, starting from a
/// triangle); the rest are services (`node-<i>`), each attached to a
/// switch picked with degree-proportional probability. Latencies are
/// uniform in 1–10 ms; core links run at 1 Gb/s, access links at
/// 100 Mb/s. Returns the topology and each service's `(service, switch)`
/// access link.
fn scale_free(elements: usize, rng: &mut Rng) -> (Topology, Vec<(String, String)>) {
    const ATTACHMENT: usize = 2;
    let switches = (elements / 3).max(ATTACHMENT + 1);
    let mut topology = Topology::new();
    let ids: Vec<NodeId> = (0..switches)
        .map(|i| topology.add_bridge(&format!("sw-{i}")))
        .collect();
    // Every link endpoint appears once, so sampling it uniformly is
    // preferential attachment.
    let mut endpoints: Vec<usize> = Vec::new();
    let core = |topology: &mut Topology, endpoints: &mut Vec<usize>, rng: &mut Rng, a, b| {
        let props = LinkProperties::new(rng.latency(), Bandwidth::from_gbps(1));
        topology.add_bidirectional_link(ids[a], ids[b], props, "core");
        endpoints.extend([a, b]);
    };
    for a in 0..=ATTACHMENT {
        for b in (a + 1)..=ATTACHMENT {
            core(&mut topology, &mut endpoints, rng, a, b);
        }
    }
    for a in (ATTACHMENT + 1)..switches {
        let mut chosen: Vec<usize> = Vec::with_capacity(ATTACHMENT);
        while chosen.len() < ATTACHMENT {
            let b = endpoints[rng.below(endpoints.len())];
            if !chosen.contains(&b) {
                chosen.push(b);
            }
        }
        for b in chosen {
            core(&mut topology, &mut endpoints, rng, a, b);
        }
    }
    let access = (0..elements - switches)
        .map(|i| {
            let name = format!("node-{i}");
            let service = topology.add_service(&name, 0, "ping");
            let switch = endpoints[rng.below(endpoints.len())];
            let props = LinkProperties::new(rng.latency(), Bandwidth::from_mbps(100));
            topology.add_bidirectional_link(service, ids[switch], props, "access");
            (name, format!("sw-{switch}"))
        })
        .collect();
    (topology, access)
}

/// Barabási–Albert topology of 150 elements (100 services) with 20
/// access links flapping twice each (300 ms down; 80 events in 5 s) and 32
/// UDP flows at 2 Mb/s between services, over 4 hosts. The graph, the
/// flapping links and the flows are fixed; the seed moves the flap times.
/// Which links flap and which services talk decide how far the
/// decentralized allocation strays (`conv_gap_mean` ranged 0.02–0.18 over
/// seeds when they were seeded too), so they stay put for the metric to be
/// comparable across seeds.
fn churn_scalefree(seed: u64, size: Size) -> Spec {
    let (elements, flapping, flow_count) = match size {
        Size::Full => (150, 20, 32),
        Size::Tiny => (30, 3, 4),
    };
    let duration = duration(size, 5);
    let mut fixed = Rng::new(0, 3);
    let (topology, access) = scale_free(elements, &mut fixed);
    let mut rng = Rng::new(seed, 3);
    let links: Vec<(String, String)> = fixed
        .distinct(access.len(), flapping)
        .into_iter()
        .map(|i| access[i].clone())
        .collect();
    let schedule = flaps(
        &topology,
        &links,
        2,
        SimDuration::from_millis(300),
        duration,
        &mut rng,
    );
    let mut flows = Vec::with_capacity(flow_count);
    while flows.len() < flow_count {
        let (a, b) = (fixed.below(access.len()), fixed.below(access.len()));
        if a != b {
            flows.push(Flow {
                client: access[a].0.clone(),
                server: access[b].0.clone(),
                rate: Bandwidth::from_mbps(2),
            });
        }
    }
    Spec {
        topology,
        hosts: 4,
        schedule,
        flows,
        duration,
    }
}
