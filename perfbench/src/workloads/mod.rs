//! The four workloads and what they share: the run context, the timed
//! phase's clock, the outcome of one run, and the dispatchers `main` and
//! the benchmark's own tests call.

use crate::hist::Hist;
use crate::host::{HostClock, REFERENCE_NS};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

pub mod durable_churn;
pub mod paper_specs;
pub mod relational_fixpoint;
pub mod spec_serving;

/// A workload: one set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's program families compiled end to end.
    PaperSpecs,
    /// Single reads against frozen specifications.
    SpecServing,
    /// Relational scenarios evaluated to fixpoint.
    RelationalFixpoint,
    /// Journaled updates beside reads on one durable store.
    DurableChurn,
}

impl Workload {
    /// Every workload, in the order the traced run sweeps them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSpecs,
        Workload::SpecServing,
        Workload::RelationalFixpoint,
        Workload::DurableChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSpecs => "paper_specs",
            Workload::SpecServing => "spec_serving",
            Workload::RelationalFixpoint => "relational_fixpoint",
            Workload::DurableChurn => "durable_churn",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The quantile reported as `op_us_tail`: p90 for compiles and
    /// fixpoints, p99 for reads and durable ops. A run of the benchmark's
    /// length holds at least ten samples beyond it (hundreds of compiles,
    /// thousands of fixpoints and durable ops, millions of reads).
    pub fn tail(self) -> f64 {
        match self {
            Workload::PaperSpecs | Workload::RelationalFixpoint => 0.90,
            Workload::SpecServing | Workload::DurableChurn => 0.99,
        }
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` keeps the
/// benchmark's own tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Test sizes.
    Tiny,
}

/// When the timed phase ends.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this much timed wall time, at the end of a pass over the
    /// stream.
    After(Duration),
    /// After this many ops (the counters then repeat exactly per seed).
    Ops(u64),
}

/// What a workload run needs besides its own inputs.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Worker threads pinned into the engines (never above the machine's).
    pub threads: usize,
    /// Input size.
    pub scale: Scale,
    /// End of the timed phase.
    pub stop: Stop,
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// What one run's timed phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops started.
    pub attempted: u64,
    /// Ops whose call returned `Err`.
    pub failed: u64,
    /// Latency of every op on the reference host (see [`crate::host`]);
    /// wall time for a phase whose times are reported raw.
    pub latency: Hist,
    /// Length of the timed phase on the reference host (wall time for a
    /// raw phase), output checks excluded.
    pub timed: Duration,
    /// `timed` over the phase's wall time: 1 for a raw phase.
    pub host_scale: f64,
    /// Peak resident set of the process through set-up and the timed
    /// phase, in MiB (`None` where the kernel does not report it). Read
    /// before the end-of-run checks, whose copies of the data are the
    /// benchmark's, not the system's.
    pub peak_rss_mb: Option<f64>,
    /// Deterministic work counters, kept apart from timings: for a given
    /// seed and op count they repeat exactly.
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-layer metrics (their times are meaningful in traced runs only).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Ops per second of timed time.
    pub fn rate(&self) -> f64 {
        self.attempted as f64 / self.timed.as_secs_f64().max(1e-9)
    }

    fn count(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0) as f64
    }
}

/// Timed wall time between two probes of the host's speed.
const PROBE_EVERY: Duration = Duration::from_millis(10);

/// The host's speed through a scaled timed phase. The phase is cut into
/// intervals at probes of the reference kernel; an interval's wall time
/// and the latencies of the ops that ended in it are scaled by the mean of
/// the probes at its two ends, so a swing of the host's speed within a run
/// is scaled where it happened.
struct HostTrack {
    clock: HostClock,
    /// Timed wall time at the last probe.
    probed: Duration,
    /// The last probe, in nanoseconds.
    last_ns: f64,
    /// Raw latencies of the ops since the last probe.
    pending: Vec<Duration>,
    /// Timed time up to the last probe, on the reference host, in seconds.
    scaled_s: f64,
}

impl HostTrack {
    fn new() -> HostTrack {
        let mut clock = HostClock::new();
        let last_ns = clock.probe();
        HostTrack {
            clock,
            probed: Duration::ZERO,
            last_ns,
            pending: Vec::new(),
            scaled_s: 0.0,
        }
    }

    /// Probes, closing the interval that ends at `timed`, and moves its
    /// ops' scaled latencies into `latency`.
    fn close(&mut self, timed: Duration, latency: &mut Hist) {
        let ns = self.clock.probe();
        let factor = REFERENCE_NS / ((self.last_ns + ns) / 2.0);
        for d in self.pending.drain(..) {
            latency.record(d.mul_f64(factor));
        }
        self.scaled_s += timed.saturating_sub(self.probed).as_secs_f64() * factor;
        (self.probed, self.last_ns) = (timed, ns);
    }
}

/// The timed phase's clock and tallies. Output checks, benchmark-side
/// bookkeeping and the host's probes run off the clock, so `timed` is the
/// system's work plus the loop around it.
pub(crate) struct Phase {
    start: Instant,
    excluded: Duration,
    stop: Stop,
    /// Ops between clock reads (reads of a clock would otherwise rival
    /// sub-microsecond ops).
    stride: u64,
    /// Ops in one pass over the workload's stream: a phase stopping on
    /// time ends only after whole passes, so every run does the same mix
    /// of work whatever the seed.
    pass: u64,
    /// `None` when the phase's times are reported raw.
    host: Option<HostTrack>,
    out: Outcome,
}

impl Phase {
    /// A phase whose times are scaled to the reference host.
    pub(crate) fn new(stop: Stop, stride: u64, pass: u64) -> Phase {
        let host = HostTrack::new();
        Phase {
            host: Some(host),
            ..Phase::raw(stop, stride, pass)
        }
    }

    /// A phase whose times are reported raw, for a workload that the
    /// host's swings move less than they move the reference kernel.
    pub(crate) fn raw(stop: Stop, stride: u64, pass: u64) -> Phase {
        Phase {
            start: Instant::now(),
            excluded: Duration::ZERO,
            stop,
            stride,
            pass,
            host: None,
            out: Outcome::default(),
        }
    }

    /// Whether the timed phase goes on. Every `stride` ops this reads the
    /// clock and, every [`PROBE_EVERY`] of timed time, probes the host off
    /// the clock. A phase stopping on time ends at a pass's end.
    pub(crate) fn running(&mut self) -> bool {
        let n = self.out.attempted;
        let d = match self.stop {
            Stop::Ops(ops) => return n < ops,
            Stop::After(d) => d,
        };
        if !n.is_multiple_of(self.stride) {
            return true;
        }
        let timed = self.timed();
        if let Some(host) = self.host.as_mut() {
            if timed >= host.probed + PROBE_EVERY {
                let t = Instant::now();
                host.close(timed, &mut self.out.latency);
                self.excluded += t.elapsed();
            }
        }
        timed < d || !n.is_multiple_of(self.pass)
    }

    fn timed(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.excluded)
    }

    /// Runs `f` off the clock.
    pub(crate) fn off_clock<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.excluded += t.elapsed();
        r
    }

    /// Tallies one op.
    #[inline]
    pub(crate) fn record(&mut self, elapsed: Duration, ok: bool) {
        self.out.attempted += 1;
        self.out.failed += u64::from(!ok);
        match &mut self.host {
            Some(host) => host.pending.push(elapsed),
            None => self.out.latency.record(elapsed),
        }
    }

    /// Adds `n` to a deterministic counter.
    pub(crate) fn count(&mut self, key: &'static str, n: u64) {
        *self.out.counters.entry(key).or_default() += n;
    }

    pub(crate) fn counted(&self, key: &str) -> f64 {
        self.out.count(key)
    }

    pub(crate) fn finish(mut self) -> Outcome {
        let wall = self.timed();
        self.out.peak_rss_mb = peak_rss_mb();
        self.out.timed = match &mut self.host {
            Some(host) => {
                host.close(wall, &mut self.out.latency);
                Duration::from_secs_f64(host.scaled_s)
            }
            None => wall,
        };
        self.out.host_scale = self.out.timed.as_secs_f64() / wall.as_secs_f64().max(1e-9);
        self.out
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Sets `w` up `setups` times, reporting each set-up's time in seconds on
/// the reference host, keeps the last set-up and runs its timed phase.
/// `Err` means a wrong answer or a set-up that could not complete.
pub fn run_workload(
    w: Workload,
    ctx: &Ctx,
    setups: usize,
    tr: &mut Tracer,
) -> Result<(Vec<f64>, Outcome), String> {
    match w {
        Workload::PaperSpecs => measure(
            setups,
            tr,
            |tr| paper_specs::setup(ctx, tr),
            |s, tr| paper_specs::run(s, ctx, tr),
        ),
        Workload::SpecServing => measure(
            setups,
            tr,
            |tr| spec_serving::setup(ctx, tr),
            |s, tr| spec_serving::run(s, ctx, tr),
        ),
        Workload::RelationalFixpoint => measure(
            setups,
            tr,
            |tr| relational_fixpoint::setup(ctx, tr),
            |s, tr| relational_fixpoint::run(s, ctx, tr),
        ),
        Workload::DurableChurn => measure(
            setups,
            tr,
            |tr| durable_churn::setup(ctx, tr),
            |s, tr| durable_churn::run(s, ctx, tr),
        ),
    }
}

/// Reference-kernel runs on each side of each set-up.
const SETUP_PROBES: usize = 8;

fn measure<S>(
    setups: usize,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
    run: impl FnOnce(&mut S, &mut Tracer) -> Result<Outcome, String>,
) -> Result<(Vec<f64>, Outcome), String> {
    let mut times = Vec::with_capacity(setups);
    let mut state = None;
    let mut host = HostClock::new();
    for _ in 0..setups.max(1) {
        // The previous set-up's memory and files go before the next starts.
        drop(state.take());
        host.clear();
        host.probe_n(SETUP_PROBES);
        let t = Instant::now();
        state = Some(setup(tr)?);
        let raw = t.elapsed().as_secs_f64();
        host.probe_n(SETUP_PROBES);
        times.push(raw * host.scale());
    }
    let mut state = state.expect("at least one set-up ran");
    let out = run(&mut state, tr)?;
    Ok((times, out))
}

/// What the traced run reports.
pub struct Traced {
    /// Ops started across every run of the sweep.
    pub attempted: u64,
    /// Ops that returned `Err` across every run of the sweep.
    pub failed: u64,
    /// Every per-layer metric, each taken from the workload that loads
    /// its layer, plus each workload's `other` share and the tracing
    /// overhead.
    pub metrics: Vec<Metric>,
}

/// The traced run: `named` once untraced and then every workload traced,
/// each for `ctx.stop`. Layer times are scaled as the workload's
/// end-to-end times are. Each workload's spans are written to
/// `<trace_dir>/<workload>-seed<seed>.tsv` when a directory is given. The
/// tracing overhead is the named workload's untraced over traced op rate,
/// scaled likewise.
pub fn traced_sweep(
    named: Workload,
    ctx: &Ctx,
    trace_dir: Option<&Path>,
) -> Result<Traced, String> {
    let (_, base) = run_workload(named, ctx, 1, &mut Tracer::new(false))?;
    let mut traced = Traced {
        attempted: base.attempted,
        failed: base.failed,
        metrics: Vec::new(),
    };
    let mut traced_rate = 0.0;
    for w in Workload::ALL {
        let mut tr = Tracer::new(true);
        let (_, mut out) = run_workload(w, ctx, 1, &mut tr)?;
        for m in &mut out.layers {
            if matches!(m.unit, "ms" | "us") {
                m.value *= out.host_scale;
            }
        }
        if w == named {
            traced_rate = out.rate();
        }
        traced.attempted += out.attempted;
        traced.failed += out.failed;
        traced.metrics.extend(out.layers);
        traced.metrics.push(Metric::new(
            format!("other.{}", w.name()),
            "ratio",
            tr.other_share(),
        ));
        if let Some(dir) = trace_dir {
            let path = dir.join(format!("{}-seed{}.tsv", w.name(), ctx.seed));
            tr.write(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    traced.metrics.push(Metric::new(
        "trace.overhead_pct",
        "%",
        (base.rate() / traced_rate.max(1e-9) - 1.0) * 100.0,
    ));
    Ok(traced)
}
