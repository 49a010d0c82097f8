//! In-memory span tree for the traced run.
//!
//! Every span carries a name, start, end, parent and counts taken at the
//! same boundary. The layer of a span is its name up to the first `.`
//! (`sim.site_class` belongs to `sim`); spans outside the named layers
//! (the benchmark's own loop) are `unattributed`. Spans stay in memory
//! until the run ends, when [`Trace::layer_self_ns`] folds them into
//! per-layer self times that sum exactly to the root span's duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// Layers a span can be attributed to; anything else is unattributed.
pub const LAYERS: [&str; 5] = ["core", "analysis", "sim", "bench", "fuzz"];

/// The pseudo-layer holding time no layer span covers.
pub const UNATTRIBUTED: &str = "unattributed";

/// Count key on a span whose nanoseconds belong to another layer: a
/// compile span carries the program-reported vulnerability-pass time
/// under `moved_ns:analysis`, so that time leaves `core` for `analysis`.
pub const MOVED_PREFIX: &str = "moved_ns:";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dotted name; the first component names the layer.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Counts taken at this boundary.
    pub counts: Vec<(String, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The named count, or 0.
    pub fn count(&self, key: &str) -> u64 {
        self.counts.iter().filter(|(k, _)| k == key).map(|(_, v)| v).sum()
    }
}

/// A span recorder: spans open and close in stack order on one thread.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            counts: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close in stack order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Adds `v` to count `key` of span `id`.
    pub fn add(&mut self, id: usize, key: &str, v: u64) {
        let counts = &mut self.spans[id].counts;
        match counts.iter_mut().find(|(k, _)| k == key) {
            Some((_, c)) => *c += v,
            None => counts.push((key.to_string(), v)),
        }
    }

    /// Runs `f` inside a span named `name`, passing the span's id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Trace, usize) -> R,
    ) -> R {
        let id = self.enter(name);
        let r = f(self, id);
        self.exit(id);
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::dur_ns).sum()
    }

    /// Sum of count `key` over spans named `name`.
    pub fn total_count(&self, name: &str, key: &str) -> u64 {
        self.named(name).map(|s| s.count(key)).sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Self time per layer: each span's duration minus what its
    /// children cover, credited to the span's layer (after moving any
    /// `moved_ns:<layer>` counts). Every layer in [`LAYERS`] and
    /// [`UNATTRIBUTED`] is present. For a closed trace with one root
    /// the values sum exactly to the root's duration.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> =
            LAYERS.iter().chain([&UNATTRIBUTED]).map(|&l| (l, 0)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            let mut own = s.dur_ns() - child_ns[i];
            for (k, v) in &s.counts {
                if let Some(layer) = k.strip_prefix(MOVED_PREFIX) {
                    let layer = layer_of(layer);
                    let moved = (*v).min(own);
                    own -= moved;
                    *out.get_mut(layer).expect("every layer is present") += moved;
                }
            }
            *out.get_mut(layer_of(s.name)).expect("every layer is present") += own;
        }
        out
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &'static str {
    let head = name.split('.').next().unwrap_or("");
    LAYERS.iter().copied().find(|&l| l == head).unwrap_or(UNATTRIBUTED)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, counts: Vec::new() }
    }

    fn trace_of(spans: Vec<Span>) -> Trace {
        Trace { origin: Instant::now(), spans, stack: Vec::new() }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_root() {
        let t = trace_of(vec![
            span("run", 0, 100, None),
            span("core.compile", 10, 40, Some(0)),
            span("sim.record", 40, 70, Some(0)),
            span("sim.site_class", 45, 55, Some(2)),
            span("analysis.classify", 56, 60, Some(2)),
        ]);
        let l = t.layer_self_ns();
        assert_eq!(l["core"], 30);
        assert_eq!(l["sim"], 30 - 4);
        assert_eq!(l["analysis"], 4);
        assert_eq!(l[UNATTRIBUTED], 100 - 30 - 30);
        assert_eq!(l.values().sum::<u64>(), 100);
    }

    #[test]
    fn moved_counts_shift_time_between_layers_without_changing_the_sum() {
        let mut compile = span("core.compile", 0, 50, Some(0));
        compile.counts.push((format!("{MOVED_PREFIX}analysis"), 20));
        let t = trace_of(vec![span("run", 0, 60, None), compile]);
        let l = t.layer_self_ns();
        assert_eq!(l["core"], 30);
        assert_eq!(l["analysis"], 20);
        assert_eq!(l[UNATTRIBUTED], 10);
        assert_eq!(l.values().sum::<u64>(), 60);
    }

    #[test]
    fn moved_time_never_exceeds_the_span_self_time() {
        let mut compile = span("core.compile", 0, 10, Some(0));
        compile.counts.push((format!("{MOVED_PREFIX}analysis"), 25));
        let t = trace_of(vec![span("run", 0, 10, None), compile]);
        let l = t.layer_self_ns();
        assert_eq!((l["core"], l["analysis"]), (0, 10));
        assert_eq!(l.values().sum::<u64>(), 10);
    }

    #[test]
    fn live_spans_nest_and_count() {
        let mut t = Trace::new();
        let root = t.enter("run");
        let n = t.span("sim.site_class", |t, _| {
            let inner = t.enter("analysis.classify");
            t.add(inner, "calls", 3);
            t.add(inner, "calls", 2);
            t.exit(inner);
            7
        });
        t.exit(root);
        assert_eq!(n, 7);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.total_count("analysis.classify", "calls"), 5);
        assert_eq!(t.calls("sim.site_class"), 1);
        assert_eq!(t.layer_self_ns().values().sum::<u64>(), t.spans()[0].dur_ns());
    }

    #[test]
    fn unknown_prefixes_are_unattributed() {
        assert_eq!(layer_of("sweep.pair"), UNATTRIBUTED);
        assert_eq!(layer_of("bench.json.render"), "bench");
        assert_eq!(layer_of("fuzz"), "fuzz");
    }

    #[test]
    #[should_panic(expected = "stack order")]
    fn out_of_order_exit_panics() {
        let mut t = Trace::new();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
