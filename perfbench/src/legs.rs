//! The two legs every workload runs.
//!
//! * The **untraced leg** is what a user runs: `Scenario::session()`, then
//!   `Session::step` one round at a time, then `finish()`. It gives the
//!   end-to-end metrics, and times the reference probe before the set-up
//!   and before every round so they can be scaled to the nominal machine.
//! * The **traced leg** builds the same emulation from the same inputs
//!   through the core constructors (`SnapshotTimeline::precompute` →
//!   `KollapsDataplane::with_prepared` → `Runtime::new`), with timing
//!   wrappers around the dataplane and the metadata bus and an enabled
//!   flight recorder. It gives the per-layer metrics. Its per-flow
//!   delivered bytes must equal the untraced report's, or it measured a
//!   different program.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kollaps_core::{
    AllocatorStats, CollapsedTopology, DynamicsStats, EmulationConfig, KollapsDataplane, Runtime,
    SnapshotTimeline,
};
use kollaps_metadata::bus::{DisseminationBus, HostId};
use kollaps_scenario::{Recorder, Report};
use kollaps_sim::prelude::*;

use crate::reference;
use crate::timed::{BusCalls, Calls, TimedBus, TimedDataplane};
use crate::workloads::{Spec, ROUND};

/// What one untraced leg measured.
pub struct Untraced {
    /// Wall time of `Scenario::session()`.
    pub setup: Duration,
    /// Wall time inside every `step` call and `finish()`: the leg's
    /// stepping, without the reference probes taken between rounds.
    pub step: Duration,
    /// Wall time of every `step` call (one emulation round each).
    pub rounds: Vec<Duration>,
    /// Median time of the reference probe taken before the set-up and
    /// before every round.
    pub reference: Duration,
    pub report: Report,
}

impl Untraced {
    /// Factor that scales this leg's wall times to the nominal machine.
    pub fn speed_scale(&self) -> f64 {
        reference::NOMINAL.as_secs_f64() / self.reference.as_secs_f64()
    }
}

/// Runs the untraced leg.
pub fn untraced(spec: &Spec) -> Result<Untraced, String> {
    let scenario = spec.scenario();
    let mut probes = vec![reference::probe()];
    let started = Instant::now();
    let mut session = scenario.session().map_err(|e| format!("session: {e}"))?;
    let setup = started.elapsed();
    let mut rounds = Vec::with_capacity(spec.rounds() as usize);
    while session.clock() < session.end() {
        probes.push(reference::probe());
        let round = Instant::now();
        session.step(ROUND).map_err(|e| format!("step: {e}"))?;
        rounds.push(round.elapsed());
    }
    let finishing = Instant::now();
    let report = session.finish();
    let step = rounds.iter().sum::<Duration>() + finishing.elapsed();
    check_report(spec, &report)?;
    probes.sort();
    Ok(Untraced {
        setup,
        step,
        rounds,
        reference: probes[probes.len() / 2],
        report,
    })
}

/// Every declared flow is in the report, in order, with nonzero goodput.
fn check_report(spec: &Spec, report: &Report) -> Result<(), String> {
    if report.flows.len() != spec.flows.len() {
        return Err(format!(
            "report has {} flows, {} were declared",
            report.flows.len(),
            spec.flows.len()
        ));
    }
    for (i, (declared, flow)) in spec.flows.iter().zip(&report.flows).enumerate() {
        if flow.client != declared.client || flow.server != declared.server {
            return Err(format!(
                "flow {i}: report names {} -> {}, declared {} -> {}",
                flow.client, flow.server, declared.client, declared.server
            ));
        }
        match flow.goodput_mbps {
            Some(mbps) if mbps > 0.0 => {}
            other => {
                return Err(format!(
                    "flow {i} ({} -> {}): goodput {other:?}",
                    flow.client, flow.server
                ))
            }
        }
    }
    Ok(())
}

/// The report JSON with its wall-clock fields (`phase_timing`,
/// `dynamics.precompute_micros`) removed: equal across runs of the same
/// program on the same inputs.
pub fn deterministic_json(report: &Report) -> String {
    use serde_json::Value;
    let mut json = report.to_json();
    if let Value::Object(fields) = &mut json {
        fields.retain(|(key, _)| key != "phase_timing");
        for (key, value) in fields.iter_mut() {
            if let (true, Value::Object(dynamics)) = (key == "dynamics", value) {
                dynamics.retain(|(key, _)| key != "precompute_micros");
            }
        }
    }
    json.to_string()
}

/// 64-bit FNV-1a, printed as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// What one traced leg measured.
pub struct Traced {
    pub expand: Duration,
    pub collapse_build: Duration,
    pub pairs: usize,
    pub precompute: Duration,
    pub snapshots: usize,
    pub dataplane_build: Duration,
    /// Wall time inside `Runtime::run_until`, summed over every round.
    pub run_until: Duration,
    /// Wall time from the first `run_until` to reading the results.
    pub step: Duration,
    pub send: Calls,
    pub next_wakeup: Calls,
    pub deliver: Calls,
    pub tick: Calls,
    /// Time inside all dataplane calls.
    pub dataplane_busy: Duration,
    pub sent: u64,
    pub backpressured: u64,
    pub dropped: u64,
    pub packets_delivered: u64,
    pub empty_delivers: u64,
    /// Loop phase totals, in `LOOP_PHASES` order.
    pub phases: Vec<(&'static str, Duration)>,
    pub alloc: AllocatorStats,
    pub alloc_busy: Duration,
    pub bus: BusCalls,
    pub bus_bytes: u64,
    pub dynamics: DynamicsStats,
    /// Per-flow goodput, computed from `udp_delivered_bytes` exactly as the
    /// scenario report computes it.
    pub goodput_mbps: Vec<f64>,
}

/// Runs the traced leg on the same inputs as [`untraced`].
pub fn traced(spec: &Spec) -> Result<Traced, String> {
    let scenario = spec.scenario();
    let started = Instant::now();
    let topology = scenario.topology().map_err(|e| format!("expand: {e}"))?;
    let expand = started.elapsed();

    let started = Instant::now();
    let collapsed = CollapsedTopology::build(&topology);
    let collapse_build = started.elapsed();
    let pairs = collapsed.pair_count();
    drop(collapsed);

    let started = Instant::now();
    let timeline = SnapshotTimeline::precompute(&topology, &spec.schedule);
    let precompute = started.elapsed();
    let snapshots = timeline.len();

    let config = EmulationConfig::default();
    let started = Instant::now();
    let mut dataplane =
        KollapsDataplane::with_prepared(timeline, spec.hosts, &HashMap::new(), config);
    let dataplane_build = started.elapsed();

    let bus_calls = Arc::new(Mutex::new(BusCalls::default()));
    let hosts: Vec<HostId> = (0..spec.hosts as u32).map(HostId).collect();
    let bus = DisseminationBus::new(hosts, config.metadata_delay);
    dataplane.set_bus(Box::new(TimedBus::new(
        Box::new(bus),
        Arc::clone(&bus_calls),
    )));
    dataplane.set_recorder(Recorder::new(1 + spec.hosts));

    let mut addresses = Vec::with_capacity(spec.flows.len());
    for flow in &spec.flows {
        let addr = |name: &str| {
            topology
                .node_by_name(name)
                .and_then(|node| dataplane.collapsed().address_of(node))
                .ok_or_else(|| format!("no address for service `{name}`"))
        };
        addresses.push((addr(&flow.client)?, addr(&flow.server)?));
    }

    let mut rt = Runtime::new(TimedDataplane::new(dataplane));
    let start = SimTime::ZERO;
    let end = SimTime::ZERO + spec.duration;
    let ids: Vec<_> = spec
        .flows
        .iter()
        .zip(&addresses)
        .map(|(flow, &(client, server))| {
            rt.add_udp_flow(client, server, flow.rate, start, Some(end))
        })
        .collect();

    let stepping = Instant::now();
    let mut run_until = Duration::ZERO;
    let mut now = start;
    while now < end {
        now = (now + ROUND).min(end);
        let call = Instant::now();
        let _ = rt.run_until(now);
        run_until += call.elapsed();
    }
    let goodput_mbps = ids
        .iter()
        .map(|&id| {
            DataSize::from_bytes(rt.udp_delivered_bytes(id))
                .rate_over(end.saturating_since(start))
                .as_mbps()
        })
        .collect();
    let step = stepping.elapsed();

    let dp = &rt.dataplane;
    let phases = dp
        .inner
        .phase_timing()
        .ok_or("the flight recorder is not enabled")?
        .into_iter()
        .map(|(name, stats)| (name, Duration::from_micros(stats.total_micros)))
        .collect();
    let bus = *bus_calls.lock().expect("bus counters poisoned");
    Ok(Traced {
        expand,
        collapse_build,
        pairs,
        precompute,
        snapshots,
        dataplane_build,
        run_until,
        step,
        send: dp.send,
        next_wakeup: dp.next_wakeup,
        deliver: dp.deliver,
        tick: dp.tick,
        dataplane_busy: dp.busy(),
        sent: dp.sent,
        backpressured: dp.backpressured,
        dropped: dp.dropped,
        packets_delivered: dp.packets_delivered,
        empty_delivers: dp.empty_delivers,
        phases,
        alloc: dp.inner.allocator_stats(),
        alloc_busy: Duration::from_micros(dp.inner.allocation_micros()),
        bus,
        bus_bytes: dp.inner.metadata_accounting().total_network_bytes(),
        dynamics: dp.inner.dynamics(),
        goodput_mbps,
    })
}

/// The traced leg ran the same program as the untraced one: every flow
/// delivered exactly the same bytes, and the metadata and dynamics
/// counters agree.
pub fn check_same_program(untraced: &Report, traced: &Traced) -> Result<(), String> {
    if untraced.flows.len() != traced.goodput_mbps.len() {
        return Err("traced and untraced legs ran different flow sets".to_string());
    }
    for (i, (flow, &mbps)) in untraced.flows.iter().zip(&traced.goodput_mbps).enumerate() {
        if flow.goodput_mbps != Some(mbps) {
            return Err(format!(
                "flow {i} ({} -> {}): traced leg delivered {mbps} Mb/s, untraced {:?}",
                flow.client, flow.server, flow.goodput_mbps
            ));
        }
    }
    if untraced.metadata_bytes != Some(traced.bus_bytes) {
        return Err(format!(
            "metadata bytes differ: traced {}, untraced {:?}",
            traced.bus_bytes, untraced.metadata_bytes
        ));
    }
    let (events, chains) = untraced
        .dynamics
        .as_ref()
        .map_or((0, 0), |d| (d.events_applied, d.chains_touched));
    if (events, chains)
        != (
            traced.dynamics.events_applied,
            traced.dynamics.chains_touched_total,
        )
    {
        return Err("dynamics counters differ between the traced and untraced legs".to_string());
    }
    Ok(())
}
