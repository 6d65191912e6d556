//! # mpart-obs — observability for the Method Partitioning runtime
//!
//! The paper's Runtime Profiling Unit (§2.5) gathers per-PSE statistics
//! to drive reconfiguration, but those statistics — and every other
//! runtime transition — were previously invisible from outside the
//! process. This crate makes the runtime observable without touching its
//! hot-path costs:
//!
//! * [`metrics`] — a lock-light [`Registry`] of named, labelled
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s. The mutex
//!   is taken only at registration and snapshot time; every update is a
//!   relaxed atomic operation on a cloned handle.
//! * [`trace`] — a bounded [`TraceRing`] of fixed-size [`Copy`]
//!   [`TraceEvent`]s (plan installs, PSE activations, degradation and
//!   re-promotion, reconfiguration decisions with the flow values that
//!   justified them). Preallocated; pushing never allocates.
//! * [`json`] — a std-only [`Json`] document writer (the workspace
//!   vendors no serialization framework) used for snapshot export and the
//!   `BENCH_*.json` report files.
//! * [`ObsHub`] — one registry plus one ring plus a monotonic clock,
//!   shared by everything observing a single partitioned handler.
//!
//! Every metric and trace event is catalogued in `OBSERVABILITY.md` at
//! the repository root; names and labels are append-only and guarded by a
//! golden-file test.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Instrument, MetricSnapshot, MetricValue,
    Registry, Snapshot,
};
pub use trace::{mask_to_pses, pse_mask, PlanReason, TraceEvent, TraceRecord, TraceRing};

use std::time::Instant;

/// Default trace-ring capacity used by [`ObsHub::new`].
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// One handler's observability surface: a metrics [`Registry`], a
/// [`TraceRing`], and the monotonic clock that stamps ring events.
///
/// The hub is created by the partitioned handler and shared (via `Arc`)
/// with the modulator, demodulator, health tracker, reconfiguration unit,
/// and transport, each of which registers its own instruments.
#[derive(Debug)]
pub struct ObsHub {
    registry: Registry,
    trace: TraceRing,
    start: Instant,
}

impl Default for ObsHub {
    fn default() -> Self {
        ObsHub::new()
    }
}

impl ObsHub {
    /// Creates a hub with the default trace capacity.
    pub fn new() -> ObsHub {
        ObsHub::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a hub whose ring retains at most `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> ObsHub {
        ObsHub { registry: Registry::new(), trace: TraceRing::new(capacity), start: Instant::now() }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Nanoseconds since the hub was created (saturating).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a trace event stamped with the hub clock.
    pub fn record(&self, event: TraceEvent) {
        self.trace.record(self.elapsed_nanos(), event);
    }

    /// Metrics snapshot as the documented JSON shape.
    pub fn metrics_json(&self) -> Json {
        self.registry.snapshot().to_json()
    }

    /// Trace-ring contents as the documented JSON shape.
    pub fn trace_json(&self) -> Json {
        self.trace.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_stamps_monotonic_times() {
        let hub = ObsHub::with_trace_capacity(8);
        hub.record(TraceEvent::FeedbackReset { epoch: 1 });
        hub.record(TraceEvent::FeedbackReset { epoch: 2 });
        let events = hub.trace().snapshot();
        assert_eq!(events.len(), 2);
        assert!(events[0].at_nanos <= events[1].at_nanos);
        assert_eq!(events[0].seq + 1, events[1].seq);
    }
}
