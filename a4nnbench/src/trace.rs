//! In-memory spans recorded by the benchmark around calls into the
//! repository's public functions and traits, written out when the run
//! ends. Only traced runs create a [`Tracer`]; untraced runs pay nothing.

use a4nn_core::{EpochResult, ModelCost, Trainer, TrainerFactory};
use a4nn_genome::Genome;
use a4nn_nn::ModelState;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span: its name, the thread that ran it, and its interval in
/// nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    values: Mutex<BTreeMap<String, Vec<f64>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            values: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// The one tracer of a traced process, alive until it exits.
    pub fn leak() -> &'static Tracer {
        Box::leak(Box::default())
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = Span {
            name,
            thread: thread_id(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Append one observation to the series `name`.
    pub fn add(&self, name: &str, value: f64) {
        self.values
            .lock()
            .expect("value map poisoned")
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn set_series(&self, name: &str, values: Vec<f64>) {
        self.values
            .lock()
            .expect("value map poisoned")
            .insert(name.to_string(), values);
    }

    pub fn series(&self, name: &str) -> Vec<f64> {
        self.values
            .lock()
            .expect("value map poisoned")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Summed seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// The last value of every series, as result fields.
    pub fn report(&self) -> crate::util::Report {
        let mut r = crate::util::Report::default();
        for (name, values) in self.values.lock().expect("value map poisoned").iter() {
            if let Some(v) = values.last() {
                r.num(name, *v);
            }
        }
        r
    }

    /// Write every span and series as JSON lines into `path`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.thread, s.start_ns, s.end_ns
            );
        }
        for (name, values) in self.values.lock().expect("value map poisoned").iter() {
            let list: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
            let _ = writeln!(
                out,
                "{{\"series\":\"{name}\",\"values\":[{}]}}",
                list.join(",")
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// A [`TrainerFactory`] that records a span around every call into the
/// wrapped factory and the trainers it makes. The workflow boxes trainers
/// as `'static`, so the tracer is the process-wide leaked one.
pub struct TracedFactory<'a> {
    inner: &'a dyn TrainerFactory,
    tracer: &'static Tracer,
}

impl<'a> TracedFactory<'a> {
    pub fn new(inner: &'a dyn TrainerFactory, tracer: &'static Tracer) -> Self {
        TracedFactory { inner, tracer }
    }
}

impl TrainerFactory for TracedFactory<'_> {
    fn make(&self, genome: &Genome, model_id: u64, seed: u64) -> Box<dyn Trainer> {
        let inner = self
            .tracer
            .span("nn.make", || self.inner.make(genome, model_id, seed));
        Box::new(TracedTrainer {
            inner,
            tracer: self.tracer,
        })
    }
}

struct TracedTrainer {
    inner: Box<dyn Trainer>,
    tracer: &'static Tracer,
}

impl Trainer for TracedTrainer {
    fn train_epoch(&mut self, epoch: u32) -> EpochResult {
        let inner = &mut self.inner;
        self.tracer.span("nn.epoch", || inner.train_epoch(epoch))
    }

    fn flops(&self) -> f64 {
        self.inner.flops()
    }

    fn cost(&self) -> ModelCost {
        let cost = self.tracer.span("nn.cost", || self.inner.cost());
        self.tracer.add("nn.ws_peak_bytes", cost.peak_ws_bytes);
        cost
    }

    fn snapshot(&mut self, epoch: u32) -> Option<ModelState> {
        let inner = &mut self.inner;
        self.tracer.span("nn.snapshot", || inner.snapshot(epoch))
    }
}
