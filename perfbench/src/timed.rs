//! Benchmark-side timing wrappers. Each one implements a public trait of
//! the emulator and delegates to the real implementation, counting and
//! timing every call across the layer boundary. Nothing inside the
//! emulator is instrumented: the wrappers see only what crosses the
//! trait.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kollaps_core::{Dataplane, KollapsDataplane, SendOutcome};
use kollaps_metadata::bus::{Bus, Delivery, HostId, TrafficAccounting};
use kollaps_metadata::codec::MetadataMessage;
use kollaps_netmodel::packet::Packet;
use kollaps_sim::prelude::*;

/// Calls made across one boundary and the wall time spent inside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub calls: u64,
    pub busy: Duration,
}

impl Calls {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.busy += start.elapsed();
        self.calls += 1;
        out
    }

    /// Microseconds per call (0 before the first call).
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// The Kollaps dataplane behind a timing shim.
pub struct TimedDataplane {
    pub inner: KollapsDataplane,
    pub send: Calls,
    pub next_wakeup: Calls,
    pub deliver: Calls,
    pub tick: Calls,
    pub sent: u64,
    pub backpressured: u64,
    pub dropped: u64,
    pub packets_delivered: u64,
    pub empty_delivers: u64,
}

impl TimedDataplane {
    pub fn new(inner: KollapsDataplane) -> Self {
        TimedDataplane {
            inner,
            send: Calls::default(),
            next_wakeup: Calls::default(),
            deliver: Calls::default(),
            tick: Calls::default(),
            sent: 0,
            backpressured: 0,
            dropped: 0,
            packets_delivered: 0,
            empty_delivers: 0,
        }
    }

    /// Wall time inside every dataplane call.
    pub fn busy(&self) -> Duration {
        self.send.busy + self.next_wakeup.busy + self.deliver.busy + self.tick.busy
    }
}

impl Dataplane for TimedDataplane {
    fn send(&mut self, now: SimTime, packet: Packet) -> SendOutcome {
        let inner = &mut self.inner;
        let outcome = self.send.time(|| inner.send(now, packet));
        match outcome {
            SendOutcome::Sent => self.sent += 1,
            SendOutcome::Backpressure => self.backpressured += 1,
            SendOutcome::Dropped(_) => self.dropped += 1,
        }
        outcome
    }

    fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        let inner = &mut self.inner;
        self.next_wakeup.time(|| inner.next_wakeup(now))
    }

    fn deliver(&mut self, now: SimTime) -> Vec<Packet> {
        let inner = &mut self.inner;
        let packets = self.deliver.time(|| inner.deliver(now));
        if packets.is_empty() {
            self.empty_delivers += 1;
        }
        self.packets_delivered += packets.len() as u64;
        packets
    }

    fn tick(&mut self, now: SimTime) -> Option<SimTime> {
        let inner = &mut self.inner;
        self.tick.time(|| inner.tick(now))
    }
}

/// Counters of a [`TimedBus`], shared with the benchmark through an
/// `Arc<Mutex<..>>` because the dataplane owns the bus itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusCalls {
    pub publish: Calls,
    pub synchronize: Calls,
    pub drain: Calls,
}

impl BusCalls {
    pub fn busy(&self) -> Duration {
        self.publish.busy + self.synchronize.busy + self.drain.busy
    }
}

/// A metadata bus behind a timing shim.
pub struct TimedBus {
    inner: Box<dyn Bus>,
    calls: Arc<Mutex<BusCalls>>,
}

impl TimedBus {
    pub fn new(inner: Box<dyn Bus>, calls: Arc<Mutex<BusCalls>>) -> Self {
        TimedBus { inner, calls }
    }

    fn with<T>(
        &mut self,
        pick: fn(&mut BusCalls) -> &mut Calls,
        f: impl FnOnce(&mut dyn Bus) -> T,
    ) -> T {
        let mut calls = self.calls.lock().expect("bus counters poisoned");
        let inner = self.inner.as_mut();
        pick(&mut calls).time(|| f(inner))
    }
}

impl Bus for TimedBus {
    fn hosts(&self) -> &[HostId] {
        self.inner.hosts()
    }

    fn publish(&mut self, now: SimTime, from: HostId, message: &MetadataMessage) {
        self.with(|c| &mut c.publish, |bus| bus.publish(now, from, message));
    }

    fn synchronize(&mut self, now: SimTime) {
        self.with(|c| &mut c.synchronize, |bus| bus.synchronize(now));
    }

    fn drain(&mut self, now: SimTime, host: HostId) -> Vec<Delivery> {
        self.with(|c| &mut c.drain, |bus| bus.drain(now, host))
    }

    fn accounting(&self) -> &TrafficAccounting {
        self.inner.accounting()
    }
}
