//! Benchmark-side spans: one record per call into a product layer.
//!
//! The benchmark wraps each call it makes into a product crate in a span
//! named `<layer>.<what>` (layer = crate name). Spans stay in memory and are
//! written out as JSON lines when the run ends. A layer's self time is the
//! span's duration minus the part its direct children cover. With the
//! recorder off, [`Recorder::span`] is a branch and a call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one op.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Records spans for one thread.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// A recording recorder whose times count from `epoch`.
    pub fn on(epoch: Instant) -> Self {
        Self {
            on: true,
            epoch,
            inner: RefCell::default(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op identifier stamped on spans opened from now on.
    pub fn set_op(&self, op: u64) {
        self.inner.borrow_mut().op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, nested under the span that is
    /// open on this recorder, if any.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let start_ns = self.now_ns();
            let mut inner = self.inner.borrow_mut();
            let (parent, op) = (inner.stack.last().copied(), inner.op);
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            let id = inner.spans.len() - 1;
            inner.stack.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans[id].end_ns = end_ns;
        inner.stack.pop();
        out
    }

    /// The spans recorded so far, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.inner.borrow_mut().spans)
    }
}

/// Appends `more` (one recorder's spans) to `all`, keeping parent links.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: duration minus the durations of its direct
/// children (saturating, so clock jitter cannot make it negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total self time per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Total duration and count per span name.
pub fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += s.dur_ns();
        e.1 += 1;
    }
    out
}

/// Writes one JSON object per span: `{id,name,start_ns,end_ns,parent,op}`.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100] > a [10,40] > a1 [15,25]; op > b [50,90]
        let spans = vec![
            span("op", 0, 100, None),
            span("x.a", 10, 40, Some(0)),
            span("y.a1", 15, 25, Some(1)),
            span("x.b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let by = self_by_name(&spans);
        assert_eq!(by["op"], 30);
        assert_eq!(by["x.a"] + by["x.b"] + by["y.a1"] + by["op"], 100);
    }

    #[test]
    fn self_time_saturates_when_children_overrun_the_parent() {
        let spans = vec![span("op", 0, 10, None), span("x.a", 0, 12, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_the_op() {
        let rec = Recorder::on(Instant::now());
        rec.set_op(7);
        let v = rec.span("op", || rec.span("trace.engine", || 41) + 1);
        assert_eq!(v, 42);
        rec.set_op(8);
        rec.span("op", || ());
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("op", None, 7)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].op),
            ("trace.engine", Some(0), 7)
        );
        assert_eq!((spans[2].parent, spans[2].op), (None, 8));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].layer(), "trace");
        assert!(rec.take().is_empty());
    }

    #[test]
    fn recorder_off_records_nothing() {
        let rec = Recorder::off();
        assert_eq!(rec.span("op", || 5), 5);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn merge_rebases_parent_links() {
        let mut all = vec![span("op", 0, 5, None)];
        merge(
            &mut all,
            vec![span("op", 6, 9, None), span("x.a", 7, 8, Some(0))],
        );
        assert_eq!(all[2].parent, Some(1));
    }
}
