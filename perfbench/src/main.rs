//! Runs one workload of the benchmark and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Progress and a readable table go to stderr. The last line of stdout is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! every end-to-end metric when untraced, every per-layer metric when
//! traced, each as `{"value": …, "unit": …}`. A wrong answer or a failed
//! set-up exits 1 without printing a result; bad arguments, or fault
//! injection armed through `FUNDB_FAULT`, exit 2.

use perfbench::{run_workload, traced_sweep, Ctx, Metric, Scale, Stop, Tracer, Workload};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Engine threads. One: the host lends the benchmark a few cores shared
/// with other tenants, so a second engine thread would measure the
/// scheduler more than the engine.
const ENGINE_THREADS: usize = 1;

/// Timed phases of a traced run: the named workload untraced, then all
/// four traced. Together they take `--seconds`.
const TRACED_PHASES: f64 = 5.0;

const USAGE: &str =
    "usage: perfbench --workload <paper_specs|spec_serving|relational_fixpoint|durable_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperSpecs,
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut named = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?;
                named = true;
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("--seconds {value:?}: want a number in (0, 3600]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    if std::env::var_os("FUNDB_FAULT").is_some() {
        eprintln!("perfbench: FUNDB_FAULT is set; refusing to measure with fault injection armed");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match measure(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::from(1)
        }
    }
}

fn measure(args: &Args) -> Result<String, String> {
    let threads = ENGINE_THREADS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let w = args.workload;
    eprintln!(
        "perfbench: {} seed {} for {} s on {threads} thread(s), trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let ctx = |seconds: f64| Ctx {
        seed: args.seed,
        threads,
        scale: Scale::Full,
        stop: Stop::After(Duration::from_secs_f64(seconds)),
    };
    let (attempted, failed, metrics) = if args.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let t = traced_sweep(w, &ctx(args.seconds / TRACED_PHASES), Some(&dir))?;
        eprintln!("perfbench: spans written to {}", dir.display());
        (t.attempted, t.failed, t.metrics)
    } else {
        let (setups, out) = run_workload(w, &ctx(args.seconds), SETUPS, &mut Tracer::new(false))?;
        let tail = w.tail();
        if out.latency.beyond(tail) < 10 {
            eprintln!(
                "perfbench: warning: {} of {} samples beyond the {tail} quantile (want 10)",
                out.latency.beyond(tail),
                out.latency.len()
            );
        }
        eprintln!(
            "perfbench: host scale {:.4}: {:.4} ops/s of wall time",
            out.host_scale,
            out.rate() * out.host_scale
        );
        let metrics = vec![
            Metric::new("setup_s", "s", median(setups)),
            Metric::new("ops_per_s", "1/s", out.rate()),
            Metric::new(
                "peak_rss_mb",
                "MB",
                out.peak_rss_mb.ok_or("the kernel reports no VmHWM")?,
            ),
            Metric::new("op_us_p50", "us", out.latency.quantile(0.5) / 1e3),
            Metric::new("op_us_tail", "us", out.latency.quantile(tail) / 1e3),
        ];
        (out.attempted, out.failed, metrics)
    };
    eprintln!("perfbench: {attempted} ops attempted, {failed} failed");
    for m in &metrics {
        eprintln!("  {:<36} {:>18.4} {}", m.name, m.value, m.unit);
    }
    json(attempted, failed, &metrics)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The result line. Every answer was checked before this point (a wrong
/// one ends the run with an error), so `correct` is always true here.
fn json(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
