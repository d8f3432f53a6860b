//! Hierarchical wall-clock spans with RAII scope guards.
//!
//! ```
//! telemetry::sink::init_trace_memory();
//! {
//!     let _step = telemetry::span("step");
//!     let _phase = telemetry::span("walk tree"); // nested: depth 1
//! } // guards drop here, innermost first, emitting span events
//! telemetry::sink::shutdown();
//! ```
//!
//! Timing uses [`std::time::Instant`] (monotonic). Timestamps in emitted
//! events are nanoseconds relative to the process trace epoch (first
//! sink initialisation), so events from all threads share one clock.

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard of one span. Created by [`span`]; records on drop or on
/// [`SpanGuard::finish`].
///
/// The start instant is always read, so [`SpanGuard::finish`] returns
/// the interval whether or not spans are enabled; `rec` is `None` when
/// they are disabled, and the lifecycle is then a relaxed load, one
/// clock read, and a no-op drop.
#[must_use = "a span guard records its interval when dropped"]
pub struct SpanGuard {
    start: Instant,
    rec: Option<Rec>,
}

struct Rec {
    name: &'static str,
    depth: u32,
}

/// Open a span named `name`. The returned guard measures until dropped
/// or finished.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let rec = crate::spans_enabled().then(|| Rec {
        name,
        depth: DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        }),
    });
    SpanGuard {
        start: Instant::now(),
        rec,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.rec.is_some() {
            self.record(self.start.elapsed());
        }
    }
}

impl SpanGuard {
    /// True when this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }

    /// Close the span and return its interval. The span event (when
    /// spans are enabled) carries exactly this duration, so a caller
    /// that needs the time as a value and in the trace reads the clock
    /// once.
    pub fn finish(mut self) -> Duration {
        let dur = self.start.elapsed();
        self.record(dur);
        dur
    }

    fn record(&mut self, dur: Duration) {
        let Some(rec) = self.rec.take() else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let t_ns = self.start.duration_since(crate::sink::epoch()).as_nanos() as u64;
        crate::sink::record_span(rec.name, rec.depth, t_ns, dur.as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use crate::{json, sink};

    #[test]
    fn disabled_span_records_nothing() {
        let _g = sink::test_lock();
        crate::disable_all();
        let s = super::span("nope");
        assert!(!s.is_recording());
        drop(s);
    }

    #[test]
    fn nested_spans_report_depth_and_duration() {
        let _g = sink::test_lock();
        sink::init_trace_memory();
        {
            let _outer = super::span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = super::span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let lines = sink::drain_memory();
        sink::shutdown();
        // Inner drops first; meta line precedes both.
        let spans: Vec<_> = lines
            .iter()
            .map(|l| json::parse(l).unwrap())
            .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("span"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(spans[0].get("depth").unwrap().as_u64(), Some(1));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("outer"));
        assert_eq!(spans[1].get("depth").unwrap().as_u64(), Some(0));
        let inner_ns = spans[0].get("dur_ns").unwrap().as_u64().unwrap();
        let outer_ns = spans[1].get("dur_ns").unwrap().as_u64().unwrap();
        assert!(
            outer_ns > inner_ns,
            "outer {outer_ns} must contain inner {inner_ns}"
        );
        // Start offsets are on the shared epoch clock: inner starts later.
        let t_inner = spans[0].get("t_ns").unwrap().as_u64().unwrap();
        let t_outer = spans[1].get("t_ns").unwrap().as_u64().unwrap();
        assert!(t_inner > t_outer);
    }

    #[test]
    fn depth_recovers_after_guards_drop() {
        let _g = sink::test_lock();
        sink::init_trace_memory();
        {
            let _a = super::span("a");
        }
        {
            let _b = super::span("b");
        }
        let lines = sink::drain_memory();
        sink::shutdown();
        let depths: Vec<u64> = lines
            .iter()
            .map(|l| json::parse(l).unwrap())
            .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("span"))
            .map(|v| v.get("depth").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(depths, vec![0, 0], "sibling spans must both sit at depth 0");
    }

    #[test]
    fn finish_times_the_interval_with_spans_disabled() {
        let _g = sink::test_lock();
        crate::disable_all();
        let s = super::span("off");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(s.finish() >= std::time::Duration::from_millis(1));
    }

    #[test]
    fn finish_returns_exactly_the_emitted_duration() {
        let _g = sink::test_lock();
        sink::init_trace_memory();
        let dur = super::span("timed").finish();
        let lines = sink::drain_memory();
        sink::shutdown();
        let spans: Vec<_> = lines
            .iter()
            .map(|l| json::parse(l).unwrap())
            .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("span"))
            .collect();
        assert_eq!(
            spans.len(),
            1,
            "finish records once; the drop after it records nothing"
        );
        let dur_ns = spans[0].get("dur_ns").unwrap().as_u64().unwrap();
        assert_eq!(dur.as_nanos() as u64, dur_ns);
    }
}
