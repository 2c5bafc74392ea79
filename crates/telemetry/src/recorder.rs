//! The in-memory recording sink.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use crate::hist::Histogram;
use crate::sink::TelemetrySink;
use crate::summary::Summary;
use crate::trace::{Phase, TraceEvent};

/// Counters and histograms are keyed by the `&'static str` the
/// [`TelemetrySink`] API passes, so an event costs a map probe and no
/// `String`; [`Summary`]'s owned keys are made when one is asked for.
/// `(u64, &str)` orders as `(u64, String)` does.
#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<(u64, &'static str), u64>,
    hists: BTreeMap<(u64, &'static str), Histogram>,
    events: Vec<TraceEvent>,
}

impl Inner {
    fn summary(&self) -> Summary {
        let owned = |&(domain, metric): &(u64, &str)| (domain, metric.to_string());
        Summary {
            counters: self.counters.iter().map(|(k, v)| (owned(k), *v)).collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| (owned(k), h.clone()))
                .collect(),
        }
    }
}

/// A [`TelemetrySink`] that aggregates counters/histograms into a
/// [`Summary`] and appends every span/instant/counter event to an
/// in-order trace buffer.
///
/// Interior mutability lets one recorder be shared behind `Arc` by a
/// device and its ports/pools/banks. The mutex is uncontended in the
/// serial simulator and is only reached from hot loops when
/// `enabled()` is true, so it does not affect telemetry-off runs.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the aggregated counters and histograms.
    pub fn summary(&self) -> Summary {
        self.lock().summary()
    }

    /// Snapshot of the recorded events, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.clone()
    }

    /// Consume the recorder, returning its summary and events without
    /// cloning the events.
    pub fn into_parts(self) -> (Summary, Vec<TraceEvent>) {
        let inner = self
            .inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        (inner.summary(), inner.events)
    }
}

impl TelemetrySink for Recorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, domain: u64, metric: &'static str, delta: u64) {
        *self.lock().counters.entry((domain, metric)).or_insert(0) += delta;
    }

    fn record(&self, domain: u64, metric: &'static str, value: u64) {
        self.lock()
            .hists
            .entry((domain, metric))
            .or_default()
            .record(value);
    }

    fn merge_hist(&self, domain: u64, metric: &'static str, hist: &Histogram) {
        self.lock()
            .hists
            .entry((domain, metric))
            .or_default()
            .merge(hist);
    }

    fn span_begin(&self, domain: u64, name: &'static str, ts: u64) {
        self.lock().events.push(TraceEvent {
            phase: Phase::Begin,
            name: name.to_string(),
            domain,
            ts,
            value: 0,
        });
    }

    fn span_end(&self, domain: u64, name: &'static str, ts: u64) {
        self.lock().events.push(TraceEvent {
            phase: Phase::End,
            name: name.to_string(),
            domain,
            ts,
            value: 0,
        });
    }

    fn instant(&self, domain: u64, name: &'static str, ts: u64) {
        self.lock().events.push(TraceEvent {
            phase: Phase::Instant,
            name: name.to_string(),
            domain,
            ts,
            value: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;

    #[test]
    fn records_counters_histograms_and_events() {
        let r = Recorder::new();
        r.counter_add(1, "nf.tx_sent", 2);
        r.counter_add(1, "nf.tx_sent", 3);
        r.record(1, "device.scrub_ps", 500);
        r.span_begin(1, "nf.launch", 10);
        r.span_end(1, "nf.launch", 20);
        r.instant(0, "fault.power_loss", 30);

        let (summary, events) = r.into_parts();
        assert_eq!(summary.counters[&(1, "nf.tx_sent".to_string())], 5);
        assert_eq!(
            summary.hists[&(1, "device.scrub_ps".to_string())].count(),
            1
        );
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].phase, Phase::Begin);
        assert_eq!(events[2].phase, Phase::Instant);
    }

    #[test]
    fn merge_hist_equals_per_sample_record() {
        let per_sample = Recorder::new();
        let batched = Recorder::new();
        let mut local = crate::hist::Histogram::new();
        for v in [0u64, 1, 7, 4096, 1 << 40] {
            per_sample.record(3, "uarch.bus_wait_cycles", v);
            local.record(v);
        }
        batched.merge_hist(3, "uarch.bus_wait_cycles", &local);
        assert_eq!(per_sample.summary(), batched.summary());
    }

    /// Keying by `&'static str` changes what an event costs, not what a
    /// summary says: the text form of a mixed sequence, byte for byte as
    /// the `String`-keyed recorder wrote it.
    #[test]
    fn recorder_summary_is_unchanged() {
        let r = Recorder::new();
        let mut batch = crate::hist::Histogram::new();
        for v in [3u64, 9, 27] {
            batch.record(v);
        }
        for round in 0..3u64 {
            r.counter_add(2, "nf.rx_polled", 1);
            r.counter_add(0, "serve.served", round);
            r.counter_add(0, "device.rx_packets", 4);
            r.counter_add(10, "nf.rx_polled", 2);
            r.record(0, "serve.queue_depth", round + 1);
            r.record(1, "device.scrub_ps", 500 * round);
            r.merge_hist(0, "serve.queue_depth", &batch);
            r.merge_hist(3, "uarch.bus_wait_cycles", &batch);
        }
        let want = "# snic-telemetry summary v1\n\
                    counter 0 device.rx_packets 12\n\
                    counter 0 serve.served 3\n\
                    counter 2 nf.rx_polled 3\n\
                    counter 10 nf.rx_polled 6\n\
                    hist 0 serve.queue_depth 12 123 1 27\n\
                    hist 1 device.scrub_ps 3 1500 0 1000\n\
                    hist 3 uarch.bus_wait_cycles 9 117 3 27\n";
        assert_eq!(r.summary().to_text(), want);
        assert_eq!(r.summary().counter(10, "nf.rx_polled"), 6);
        let (summary, _) = r.into_parts();
        assert_eq!(summary.to_text(), want);
    }

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let s = NullSink;
        assert!(!s.enabled());
        // Default bodies: calls are accepted and discard everything.
        s.counter_add(1, "x", 1);
        s.record(1, "x", 1);
        s.span_begin(1, "x", 1);
        s.span_end(1, "x", 2);
        s.instant(1, "x", 3);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let r = std::sync::Arc::new(Recorder::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.counter_add(i, "t", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("join");
        }
        let summary = r.summary();
        for i in 0..4 {
            assert_eq!(summary.counters[&(i, "t".to_string())], 100);
        }
    }
}
