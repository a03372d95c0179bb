//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, start and end (ns since the tracer was
//! created), the span that was open when it started, and the workload
//! cell it belongs to. Spans stay in memory until the rep ends; nothing is
//! written while the measured work runs. A disabled tracer records nothing
//! and never reads the clock, so untraced reps run the same code path.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps (e.g. `sim.run`).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload cell the span belongs to, if any.
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use = "pass the handle to Tracer::exit"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records spans when `enabled`, and otherwise does
    /// nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin.map_or(0, |o| {
            u64::try_from(o.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: Option<usize>) -> Open {
        if !self.enabled() {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`].
    ///
    /// # Panics
    ///
    /// If spans are closed out of nesting order.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, cell: Option<usize>, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, cell);
        let r = f();
        self.exit(open);
        r
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children never overlap each other (the
/// benchmark is single-threaded while traced), so the sum is exact.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.len_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.len_ns().saturating_sub(c))
        .collect()
}

/// Self time and span count per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Sums [`self_times`] by span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.self_ns += self_ns;
        e.count += 1;
    }
    out
}
