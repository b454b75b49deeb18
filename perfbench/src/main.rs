//! `kollaps-perfbench`: runs one benchmark workload for a time budget and
//! prints one JSON line with its metrics, its deterministic counters and
//! the outcome of its correctness checks. `perfbench/run.py` builds this
//! binary, runs it and turns that line into the benchmark's result; see
//! `perfbench/README.md` for the metrics.
//!
//! ```text
//! kollaps-perfbench --workload <udp-wide|churn-scalefree>
//!     --seed <n> --seconds <s> --trace <0|1> [--size <full|tiny>]
//! ```

mod legs;
mod reference;
mod timed;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use legs::{Traced, Untraced};
use serde_json::Value;
use workloads::{Size, Spec};

/// Untraced legs a run holds at least, so every median has three values.
const MIN_LEGS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("bad --size {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
    })
}

/// Runs one leg, turning a panic into an error.
fn guarded<T>(leg: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(leg)) {
        Ok(result) => result,
        Err(panic) => Err(format!(
            "panicked: {}",
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)")
        )),
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of `values`.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Metrics in insertion order, each as `{"value": .., "unit": ..}`.
#[derive(Default)]
struct Metrics(Vec<(String, Value)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &str) {
        let metric = Value::Object(vec![
            ("value".to_string(), value.into()),
            ("unit".to_string(), unit.into()),
        ]);
        self.0.push((name.to_string(), metric));
    }

    fn secs(&mut self, name: &str, value: Duration) {
        self.add(name, value.as_secs_f64(), "s");
    }

    fn count(&mut self, name: &str, value: u64) {
        self.add(name, value as f64, "count");
    }

    fn ratio(&mut self, name: &str, num: f64, den: f64) {
        self.add(name, if den > 0.0 { num / den } else { 0.0 }, "ratio");
    }
}

/// End-to-end metrics of the untraced legs, with every leg's wall times
/// scaled to the nominal machine by its reference probe (see
/// `reference.rs`). `setup_s` and `step_s` are medians over the legs. For
/// the round percentiles, each of a leg's rounds (100 at full size) takes
/// the median over the legs, and p50 and p90 are over those values.
fn end_to_end(runs: &[Untraced]) -> Result<Metrics, String> {
    let scaled = |f: &dyn Fn(&Untraced) -> Duration| -> Vec<f64> {
        runs.iter()
            .map(|r| f(r).as_secs_f64() * r.speed_scale())
            .collect()
    };
    let rounds_ms: Vec<f64> = (0..runs[0].rounds.len())
        .map(|k| median(&scaled(&|r| r.rounds[k])) * 1e3)
        .collect();
    let gap = runs[0]
        .report
        .convergence
        .as_ref()
        .ok_or("report has no convergence block")?
        .mean_gap;
    let mut m = Metrics::default();
    m.add("setup_s", median(&scaled(&|r| r.setup)), "s");
    m.add("step_s", median(&scaled(&|r| r.step)), "s");
    m.add("round_ms_p50", percentile(&rounds_ms, 0.5), "ms");
    m.add("round_ms_p90", percentile(&rounds_ms, 0.9), "ms");
    m.add("peak_rss_mb", peak_rss_mb()?, "MiB");
    m.add("conv_gap_mean", gap, "ratio");
    Ok(m)
}

/// The traced leg with the median stepping time.
fn median_leg(traced: &[Traced]) -> &Traced {
    let mut by_step: Vec<&Traced> = traced.iter().collect();
    by_step.sort_by_key(|t| t.step);
    by_step[(by_step.len() - 1) / 2]
}

/// Per-layer metrics of the traced legs. Set-up times are medians over
/// the legs. The stepping split comes whole from the leg with the median
/// stepping time, so `runtime.self_s` plus every `dataplane.*.busy_s` adds
/// up to that leg's `runtime.run_until_s`. Counts are equal in every leg.
fn per_layer(traced: &[Traced], untraced: &[Untraced]) -> Metrics {
    let med = |f: fn(&Traced) -> Duration| -> Duration {
        let values: Vec<f64> = traced.iter().map(|t| f(t).as_secs_f64()).collect();
        Duration::from_secs_f64(median(&values))
    };
    let t = median_leg(traced);
    let mut m = Metrics::default();
    m.secs("scenario.expand_s", med(|t| t.expand));
    m.secs("collapse.build_s", med(|t| t.collapse_build));
    m.count("collapse.pairs", t.pairs as u64);
    m.secs("timeline.precompute_s", med(|t| t.precompute));
    m.count("timeline.snapshots", t.snapshots as u64);
    m.secs("dataplane.build_s", med(|t| t.dataplane_build));

    m.secs("runtime.run_until_s", t.run_until);
    m.secs(
        "runtime.self_s",
        t.run_until.saturating_sub(t.dataplane_busy),
    );
    for (name, calls) in [
        ("send", t.send),
        ("next_wakeup", t.next_wakeup),
        ("deliver", t.deliver),
        ("tick", t.tick),
    ] {
        m.count(&format!("dataplane.{name}.calls"), calls.calls);
        m.secs(&format!("dataplane.{name}.busy_s"), calls.busy);
    }
    m.add(
        "dataplane.next_wakeup.us_per_call",
        t.next_wakeup.us_per_call(),
        "us",
    );
    m.add(
        "dataplane.deliver.us_per_call",
        t.deliver.us_per_call(),
        "us",
    );

    m.ratio(
        "dataplane.send.accepted_ratio",
        t.sent as f64,
        t.send.calls as f64,
    );
    m.count("dataplane.send.backpressured", t.backpressured);
    m.count("dataplane.send.dropped", t.dropped);
    m.count("dataplane.packets_delivered", t.packets_delivered);
    m.ratio(
        "dataplane.deliver.empty_ratio",
        t.empty_delivers as f64,
        t.deliver.calls as f64,
    );
    m.ratio(
        "dataplane.deliver_calls_per_packet",
        t.deliver.calls as f64,
        t.packets_delivered as f64,
    );

    for (phase, busy) in &t.phases {
        m.secs(&format!("loop.{phase}_s"), *busy);
    }
    let phases: Duration = t.phases.iter().map(|(_, busy)| *busy).sum();
    m.secs("loop.unattributed_s", t.tick.busy.saturating_sub(phases));

    m.secs("alloc.busy_s", t.alloc_busy);
    m.count("alloc.calls", t.alloc.calls);
    m.ratio(
        "alloc.fast_hit_ratio",
        t.alloc.fast_hits as f64,
        t.alloc.calls as f64,
    );
    m.count("alloc.components_recomputed", t.alloc.components_recomputed);

    m.secs("bus.busy_s", t.bus.busy());
    m.count("bus.publish.calls", t.bus.publish.calls);
    m.count("bus.bytes", t.bus_bytes);

    m.count("dynamics.events_applied", t.dynamics.events_applied as u64);
    m.count(
        "dynamics.chains_touched",
        t.dynamics.chains_touched_total as u64,
    );

    let untraced_step = median(
        &untraced
            .iter()
            .map(|u| u.step.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    m.ratio("trace.overhead_ratio", t.step.as_secs_f64(), untraced_step);
    m
}

/// The deterministic counters of a traced leg: every leg of every run on
/// the same inputs must reproduce them exactly.
fn traced_counters(t: &Traced) -> BTreeMap<&'static str, String> {
    let goodputs: Vec<String> = t.goodput_mbps.iter().map(|g| format!("{g:?}")).collect();
    BTreeMap::from([
        ("collapse.pairs", t.pairs.to_string()),
        ("timeline.snapshots", t.snapshots.to_string()),
        ("dataplane.send.calls", t.send.calls.to_string()),
        ("dataplane.send.sent", t.sent.to_string()),
        ("dataplane.send.backpressured", t.backpressured.to_string()),
        ("dataplane.send.dropped", t.dropped.to_string()),
        (
            "dataplane.next_wakeup.calls",
            t.next_wakeup.calls.to_string(),
        ),
        ("dataplane.deliver.calls", t.deliver.calls.to_string()),
        ("dataplane.deliver.empty", t.empty_delivers.to_string()),
        ("dataplane.tick.calls", t.tick.calls.to_string()),
        (
            "dataplane.packets_delivered",
            t.packets_delivered.to_string(),
        ),
        ("alloc.calls", t.alloc.calls.to_string()),
        ("alloc.fast_hits", t.alloc.fast_hits.to_string()),
        (
            "alloc.components_reused",
            t.alloc.components_reused.to_string(),
        ),
        (
            "alloc.components_recomputed",
            t.alloc.components_recomputed.to_string(),
        ),
        ("bus.publish.calls", t.bus.publish.calls.to_string()),
        ("bus.bytes", t.bus_bytes.to_string()),
        (
            "dynamics.events_applied",
            t.dynamics.events_applied.to_string(),
        ),
        (
            "dynamics.chains_touched",
            t.dynamics.chains_touched_total.to_string(),
        ),
        ("flows.goodput_digest", legs::digest(&goodputs.join(","))),
    ])
}

/// The deterministic counters of an untraced leg.
fn untraced_counters(u: &Untraced) -> BTreeMap<&'static str, String> {
    let gap = u.report.convergence.as_ref().map(|c| c.mean_gap);
    BTreeMap::from([
        (
            "report.digest",
            legs::digest(&legs::deterministic_json(&u.report)),
        ),
        ("conv_gap_mean", format!("{gap:?}")),
        ("rounds", u.rounds.len().to_string()),
        (
            "report.total_goodput_mbps",
            format!(
                "{:?}",
                u.report
                    .flows
                    .iter()
                    .filter_map(|f| f.goodput_mbps)
                    .sum::<f64>()
            ),
        ),
    ])
}

fn same_counters(
    leg: &str,
    first: &BTreeMap<&'static str, String>,
    now: &BTreeMap<&'static str, String>,
) -> Result<(), String> {
    if first == now {
        Ok(())
    } else {
        Err(format!(
            "{leg} leg not deterministic: {now:?}, first leg {first:?}"
        ))
    }
}

fn counters_json(counters: Option<BTreeMap<&'static str, String>>) -> Value {
    Value::Object(
        counters
            .unwrap_or_default()
            .into_iter()
            .map(|(name, value)| (name.to_string(), value.into()))
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kollaps-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match Spec::generate(&args.workload, args.seed, args.size) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("kollaps-perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut attempted = 0u64;
    let mut errors: Vec<String> = Vec::new();
    let mut untraced: Vec<Untraced> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    // The first leg's counters; every later leg must reproduce them.
    let mut untraced_first = None;
    let mut traced_first = None;
    // Legs alternate (untraced, then traced when tracing) until the budget
    // is spent.
    while errors.is_empty() {
        let iteration = Instant::now();
        attempted += 1;
        let leg = guarded(|| legs::untraced(&spec)).and_then(|u| {
            let counters = untraced_counters(&u);
            same_counters(
                "untraced",
                untraced_first.get_or_insert(counters.clone()),
                &counters,
            )?;
            Ok(u)
        });
        match leg {
            Ok(u) => untraced.push(u),
            Err(e) => errors.push(format!("untraced leg {attempted}: {e}")),
        }
        if args.trace && errors.is_empty() {
            attempted += 1;
            let leg = guarded(|| legs::traced(&spec)).and_then(|t| {
                legs::check_same_program(&untraced[0].report, &t)?;
                let counters = traced_counters(&t);
                same_counters(
                    "traced",
                    traced_first.get_or_insert(counters.clone()),
                    &counters,
                )?;
                Ok(t)
            });
            match leg {
                Ok(t) => traced.push(t),
                Err(e) => errors.push(format!("traced leg {attempted}: {e}")),
            }
        }
        // Start another iteration only if it is likely to end in budget,
        // and, untraced, always until there are `MIN_LEGS` legs.
        let now = Instant::now();
        let enough = args.trace || untraced.len() >= MIN_LEGS;
        if now + now.duration_since(iteration) > deadline && enough {
            break;
        }
    }

    let metrics = if !errors.is_empty() {
        Metrics::default()
    } else if args.trace {
        per_layer(&traced, &untraced)
    } else {
        match end_to_end(&untraced) {
            Ok(m) => m,
            Err(e) => {
                errors.push(e);
                Metrics::default()
            }
        }
    };
    let legs = |values: Vec<Duration>| -> Value {
        Value::Array(values.iter().map(|d| d.as_secs_f64().into()).collect())
    };
    let field = |name: &str, value: Value| (name.to_string(), value);
    let result = Value::Object(vec![
        field("workload", args.workload.as_str().into()),
        field("seed", args.seed.into()),
        field("trace", u64::from(args.trace).into()),
        field("untraced_legs", untraced.len().into()),
        field("traced_legs", traced.len().into()),
        field("setup_s", legs(untraced.iter().map(|u| u.setup).collect())),
        field("step_s", legs(untraced.iter().map(|u| u.step).collect())),
        field(
            "reference_s",
            legs(untraced.iter().map(|u| u.reference).collect()),
        ),
        field(
            "traced_step_s",
            legs(traced.iter().map(|t| t.step).collect()),
        ),
        field(
            "traced_median_leg",
            if traced.is_empty() {
                Value::Null
            } else {
                let t = median_leg(&traced);
                Value::Object(vec![
                    field("run_until_s", t.run_until.as_secs_f64().into()),
                    field("dataplane_busy_s", t.dataplane_busy.as_secs_f64().into()),
                    field("step_s", t.step.as_secs_f64().into()),
                ])
            },
        ),
        field("attempted", attempted.into()),
        field("failed", errors.len().into()),
        field(
            "errors",
            Value::Array(errors.iter().map(|e| e.as_str().into()).collect()),
        ),
        field("metrics", Value::Object(metrics.0)),
        field(
            "counters",
            Value::Object(vec![
                field("untraced", counters_json(untraced_first)),
                field("traced", counters_json(traced_first)),
            ]),
        ),
    ]);
    println!("{result}");
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
