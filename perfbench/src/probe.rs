//! The benchmark-side `HostApp` wrapper and the in-memory span log.
//!
//! [`Probe`] wraps one host application. It always notes the simulated
//! time of each completed application window (a cheap counter compare
//! after each callback). When a [`Tracer`] is attached it also times
//! every `on_start`/`on_packet`/`on_timer` call in wall-clock time and
//! records it as a span. `as_any` delegates to the wrapped app, so
//! `Network::host_app::<NclHost>` and friends keep working.

use netsim::{HostApp, HostCtx, Packet, Time};
use std::any::Any;
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Which per-layer bucket a wrapped app's callbacks are charged to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// libncrt: `NclHost` (split, encode, NCP-R, reassembly, `_in_`).
    Runtime,
    /// The KVS applications (`KvsClient`, `KvsServer`).
    Apps,
}

/// One recorded span: a layer boundary crossing with its wall-clock
/// interval, relative to the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran (`"on_packet"`, `"nclc.lower"`, `"replay.switch"`, ...).
    pub name: Cow<'static, str>,
    /// The layer it belongs to.
    pub cat: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Index of the enclosing span, when there is one.
    pub parent: Option<usize>,
}

/// Spans kept per traced run; callbacks past this are still timed and
/// counted, only not kept individually.
const SPAN_CAP: usize = 250_000;

/// In-memory span log plus per-layer busy time and call counts.
pub struct Tracer {
    epoch: Instant,
    /// Recorded spans, in the order they were opened or recorded.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Wall time inside wrapped callbacks, ns, by [`Layer`].
    pub busy_ns: [u64; 2],
    /// Wrapped callbacks, by [`Layer`].
    pub calls: [u64; 2],
}

impl Tracer {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            busy_ns: [0; 2],
            calls: [0; 2],
        }
    }

    /// Epoch-relative ns of `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span under the innermost open span.
    pub fn record(&mut self, name: &'static str, cat: &'static str, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        let parent = self.open.last().copied();
        self.span_at(name.into(), cat, s, e.saturating_sub(s), parent);
    }

    /// Records a span given in epoch-relative ns under `parent` (used
    /// for the set-up phases, which are measured as durations); returns
    /// its index unless the log is full.
    pub fn span_at(
        &mut self,
        name: Cow<'static, str>,
        cat: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if self.spans.len() >= SPAN_CAP {
            return None;
        }
        self.spans.push(Span {
            name,
            cat,
            start_ns,
            dur_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that later records nest under; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, cat: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            cat,
            start_ns: self.ns(Instant::now()),
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` opened.
    pub fn close(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans[id].dur_ns = now.saturating_sub(self.spans[id].start_ns);
        self.open.retain(|&o| o != id);
    }

    /// The innermost open span.
    pub fn open_span(&self) -> Option<usize> {
        self.open.last().copied()
    }

    fn callback(&mut self, layer: Layer, name: &'static str, start: Instant, end: Instant) {
        let i = layer as usize;
        self.busy_ns[i] += end.saturating_duration_since(start).as_nanos() as u64;
        self.calls[i] += 1;
        let cat = match layer {
            Layer::Runtime => "runtime",
            Layer::Apps => "apps",
        };
        self.record(name, cat, start, end);
    }

    /// The spans as a Chrome trace-event JSON document (loadable in
    /// Perfetto or `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.cat,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// What one wrapped host did, readable after the run (the wrapper
/// itself is hidden behind `as_any` delegation).
#[derive(Default, Debug)]
pub struct HostLog {
    /// Simulated time of each completed application window, in
    /// completion order.
    pub completions: Vec<Time>,
    /// Frames the app had sent when `on_start` returned.
    pub sent_at_start: u64,
    seen: u64,
}

/// A host application wrapped for the benchmark (see the module docs).
pub struct Probe<T> {
    inner: T,
    layer: Layer,
    completed: fn(&T) -> u64,
    sent: fn(&T) -> u64,
    log: Rc<RefCell<HostLog>>,
    tracer: Option<Rc<RefCell<Tracer>>>,
}

impl<T: HostApp + 'static> Probe<T> {
    /// Wraps `inner`. `completed` and `sent` read the app's own
    /// completed-window and sent-frame counters.
    pub fn new(
        inner: T,
        layer: Layer,
        completed: fn(&T) -> u64,
        sent: fn(&T) -> u64,
        tracer: Option<Rc<RefCell<Tracer>>>,
    ) -> (Self, Rc<RefCell<HostLog>>) {
        let log = Rc::new(RefCell::new(HostLog::default()));
        let probe = Probe {
            inner,
            layer,
            completed,
            sent,
            log: log.clone(),
            tracer,
        };
        (probe, log)
    }

    fn timed(&mut self, name: &'static str, now: Time, f: impl FnOnce(&mut T)) {
        match &self.tracer {
            Some(tracer) => {
                let start = Instant::now();
                f(&mut self.inner);
                let end = Instant::now();
                tracer.borrow_mut().callback(self.layer, name, start, end);
            }
            None => f(&mut self.inner),
        }
        let done = (self.completed)(&self.inner);
        let mut log = self.log.borrow_mut();
        while log.seen < done {
            log.seen += 1;
            log.completions.push(now);
        }
    }
}

impl<T: HostApp + 'static> HostApp for Probe<T> {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.timed("on_start", ctx.now, |app| app.on_start(ctx));
        let sent = (self.sent)(&self.inner);
        self.log.borrow_mut().sent_at_start = sent;
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        self.timed("on_packet", ctx.now, |app| app.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        self.timed("on_timer", ctx.now, |app| app.on_timer(ctx, token));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
