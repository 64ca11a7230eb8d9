//! Coupled-pipeline benchmark for the FlexIO workspace.
//!
//! Runs one of three coupled simulation → analytics workloads on the real
//! stack through the public `flexio` / `adios` / `apps` APIs, checks
//! every step's output against a serial reference built from the same
//! seed, and prints the end-to-end metrics (untraced run) or the
//! per-layer metrics (traced run, `--trace 1`):
//!
//! ```text
//! bash perfbench/run.sh --workload gts_pushdown|s3d_mxn|ctrl_small|all \
//!     --seed N --seconds S --trace 0|1 [--out DIR]
//! bash perfbench/run.sh --smoke [--workload NAME]
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! nonzero when any step failed its correctness check.

mod ctrl;
mod gts;
mod harness;
mod probes;
mod ranks;
mod s3d;
mod stats;
mod sysinfo;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{describe_hints, Coupling, Stop};
use stats::{drift, median, percentile, warmup_steps};
use sysinfo::{host_fingerprint, json_str, peak_rss_mb};
use workload::{Verdict, Workload};

/// Workload names, in the order `--workload all` and `--smoke` run them.
const WORKLOADS: [&str; 3] = ["gts_pushdown", "s3d_mxn", "ctrl_small"];

/// Set-up is measured this many times before the timed coupling (which
/// adds one more sample); `setup_s` is the median.
const SETUP_ROUNDS: usize = 20;
/// Steps each set-up round runs (and checks) before closing.
const SETUP_STEPS: u64 = 2;
/// Steps of the smoke-mode coupling.
const SMOKE_STEPS: u64 = 12;

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    /// Where the traced run's spans are dumped (none: not dumped).
    out_dir: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: perfbench --workload <gts_pushdown|s3d_mxn|ctrl_small|all> --seed <n> \
     --seconds <s> --trace <0|1> [--out <dir>]\n       perfbench --smoke [--workload <name>]"
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        out_dir: Some(PathBuf::from(".bench_out")),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.max(1),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => opts.out_dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {}", opts.workload));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match opts.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![WORKLOADS.into_iter().find(|w| *w == one).expect("validated")],
    };
    if opts.smoke {
        let failures = names.iter().filter(|name| !dispatch(name, &opts, Mode::Smoke)).count();
        return if failures == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }
    if names.len() > 1 {
        return run_each_in_own_process(&names);
    }
    if dispatch(names[0], &opts, Mode::Measure) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: one child process per workload, so no workload's
/// peak RSS or allocator state carries into another's.
fn run_each_in_own_process(names: &[&str]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let passthrough: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for name in names {
        let mut args = Vec::new();
        let mut it = passthrough.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                args.push(a.clone());
            }
        }
        args.extend(["--workload".to_string(), name.to_string()]);
        let status = std::process::Command::new(&exe).args(&args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Measure,
    Smoke,
}

fn dispatch(name: &str, opts: &Opts, mode: Mode) -> bool {
    let seed = opts.seed;
    match name {
        "gts_pushdown" => run_workload(&gts::GtsPushdown::new(seed), opts, mode),
        "s3d_mxn" => run_workload(&s3d::S3dMxn::new(seed), opts, mode),
        "ctrl_small" => run_workload(&ctrl::CtrlSmall::new(seed), opts, mode),
        _ => unreachable!("names are validated"),
    }
}

/// Steps attempted and failed, across every coupling of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Account one coupling that was asked to run `wanted` steps (or as
    /// many as its time allowed, when `None`).
    fn add(&mut self, c: &Coupling, verdict: Verdict, wanted: Option<u64>) {
        let missing = wanted.map_or(0, |w| w.saturating_sub(c.steps_begun));
        let mut failed = verdict.failed_steps + missing;
        if !c.errors.is_empty() {
            failed = failed.max(1);
        }
        self.attempted += c.steps_begun + missing;
        self.failed += failed;
        self.notes.extend(c.errors.iter().cloned());
        self.notes.extend(verdict.notes);
    }
}

/// One metric line: name, value, unit, and how many samples it rests on.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: String,
    /// Listed in `BENCHMARK.json` and in the result line.
    gated: bool,
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: impl Into<String>,
) -> Metric {
    // A non-finite value cannot be written as JSON; report it as 0 and
    // let the sample note say why.
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name, value, unit, samples: samples.into(), gated: true }
}

fn pct(samples: &[f64], bp: u32, what: &str) -> Result<(f64, String), String> {
    percentile(samples, bp)
        .map(|v| (v, format!("n={} {what}", samples.len())))
        .map_err(|e| format!("{what}: {e}"))
}

fn run_workload<W: Workload>(w: &W, opts: &Opts, mode: Mode) -> bool {
    let name = w.name();
    eprintln!(
        "perfbench: {name} seed={} mode={}",
        opts.seed,
        if mode == Mode::Smoke { "smoke" } else { "measure" }
    );
    let mut tally = Tally::default();

    // Set-up rounds: each a fresh coupling of SETUP_STEPS checked steps.
    let rounds = if mode == Mode::Smoke { 1 } else { SETUP_ROUNDS };
    let setup_reference = w.reference(SETUP_STEPS);
    let mut setup_samples = Vec::new();
    for _ in 0..rounds {
        let (c, readers) = w.couple(Stop::Steps(SETUP_STEPS), false);
        let verdict = w.check(&readers, &setup_reference, c.steps_begun);
        tally.add(&c, verdict, Some(SETUP_STEPS));
        setup_samples.push(c.setup_s);
    }

    // The timed, untraced coupling: every end-to-end metric comes from it.
    let stop = match mode {
        Mode::Smoke => Stop::Steps(SMOKE_STEPS),
        Mode::Measure => Stop::For(Duration::from_secs(opts.seconds)),
    };
    let wanted = match stop {
        Stop::Steps(n) => Some(n),
        Stop::For(_) => None,
    };
    let (timed, readers) = w.couple(stop, false);
    setup_samples.push(timed.setup_s);
    let rss = peak_rss_mb().unwrap_or(0.0);
    let t = Instant::now();
    let reference = w.reference(timed.steps_begun);
    let serial_s = t.elapsed().as_secs_f64();
    let verdict = w.check(&readers, &reference, timed.steps_begun);
    drop(readers);
    drop(reference);
    tally.add(&timed, verdict, wanted);
    let timing = timed.timing();
    let steps_per_s = timing.completed as f64 / timing.elapsed_s.max(1e-9);

    let mut refused = Vec::new();
    let mut metrics = Vec::new();
    let mut push = |r: Result<(f64, String), String>, name, unit| match r {
        Ok((v, n)) => metrics.push(metric(name, v, unit, n)),
        Err(e) => refused.push(e),
    };

    if !opts.trace || mode == Mode::Smoke {
        push(
            Ok((steps_per_s, format!("{} steps in {:.3} s", timing.completed, timing.elapsed_s))),
            "steps_per_s",
            "1/s",
        );
        let setup = median(&setup_samples).unwrap_or(0.0);
        push(Ok((setup, format!("median of {} set-ups", setup_samples.len()))), "setup_s", "s");
        push(Ok((rss, "VmHWM after the timed run".to_string())), "peak_rss_mb", "MiB");
        // Printed but not gated: across sets of ten runs of the same build
        // these moved by more than the largest bound a gate may use. A
        // host slowdown of a second or two is more than 1% of a run and
        // lifts a p99; s3d_mxn's latency jumps when the readers fall a
        // step behind the async writers and the socket buffers queue a
        // backlog; on ctrl_small write and latency percentiles follow the
        // reader's waits as they turn from spinning to parking.
        for (samples, bp, what, name) in [
            (&timing.write_ms, 5000, "rank-steps", "write_ms_p50"),
            (&timing.write_ms, 9900, "rank-steps", "write_ms_p99"),
            (&timing.latency_ms, 5000, "steps", "step_latency_ms_p50"),
            (&timing.latency_ms, 9000, "steps", "step_latency_ms_p90"),
        ] {
            match pct(samples, bp, what) {
                Ok((v, n)) => metrics.push(Metric { gated: false, ..metric(name, v, "ms", n) }),
                Err(e) => refused.push(e),
            }
        }
    }

    let mut traced_steps = None;
    if opts.trace || mode == Mode::Smoke {
        let (traced, readers) = w.couple(stop, true);
        let reference = w.reference(traced.steps_begun);
        let verdict = w.check(&readers, &reference, traced.steps_begun);
        drop(readers);
        drop(reference);
        tally.add(&traced, verdict, wanted);
        let probe = probes::run(&w.probe_input());
        let baseline_sps = timed.steps_begun as f64 / serial_s.max(1e-9);
        let (layer_metrics, layer_refused) =
            per_layer(&timed, &traced, &probe, steps_per_s, baseline_sps);
        if mode == Mode::Smoke {
            metrics.extend(layer_metrics);
        } else {
            metrics = layer_metrics;
        }
        refused.extend(layer_refused);
        print_self_times(&traced);
        if let Err(e) = dump_spans(opts, name, &traced) {
            eprintln!("perfbench: could not write spans: {e}");
        }
        traced_steps = Some(traced.steps_begun);
    }

    let correct = tally.failed == 0;
    print_report(w, opts, &metrics, &tally, &timed, traced_steps, timing.completed, &refused);
    if mode == Mode::Measure {
        println!("{}", result_json(correct, &tally, &metrics));
    } else {
        println!(
            "smoke {name}: {} ({} steps attempted, {} failed)",
            if correct { "ok" } else { "FAILED" },
            tally.attempted,
            tally.failed
        );
    }
    // In smoke mode percentiles over a dozen steps are expected to be
    // refused; a measured run must produce every metric.
    correct && (mode == Mode::Smoke || refused.is_empty())
}

/// The per-layer metrics of the traced run.
fn per_layer(
    untraced: &Coupling,
    traced: &Coupling,
    probe: &probes::ProbeResult,
    untraced_sps: f64,
    baseline_sps: f64,
) -> (Vec<Metric>, Vec<String>) {
    use trace::durations_ms;
    let mut out = Vec::new();
    let mut refused = Vec::new();
    let threads = &traced.threads;
    let p = |name, span: &str, bp, out: &mut Vec<Metric>, refused: &mut Vec<String>| {
        let d = durations_ms(threads, span);
        match pct(&d, bp, &format!("{span} spans")) {
            Ok((v, n)) => out.push(metric(name, v, "ms", n)),
            Err(e) => refused.push(e),
        }
    };
    p("apps.sim_ms_p50", "apps.sim", 5000, &mut out, &mut refused);
    p("apps.analytics_ms_p50", "apps.analytics", 5000, &mut out, &mut refused);
    let open_max = traced.open_ms.iter().copied().fold(0.0, f64::max);
    out.push(metric("link.open_ms_max", open_max, "ms", format!("{} ranks", traced.open_ms.len())));
    p("writer.end_step_ms_p50", "writer.end_step", 5000, &mut out, &mut refused);
    p("writer.end_step_ms_p99", "writer.end_step", 9900, &mut out, &mut refused);
    let end_steps = durations_ms(threads, "writer.end_step");
    let nwriters = (traced.writer.len() as u64 / traced.steps_begun.max(1)).max(1) as usize;
    let warmup = warmup_steps(traced.steps_begun as usize) * nwriters;
    match drift(&end_steps, warmup) {
        Some(d) => out.push(metric(
            "writer.end_step_drift",
            d,
            "ratio",
            format!(
                "last/first tenth of {} rank-steps after {warmup}",
                end_steps.len() - warmup.min(end_steps.len())
            ),
        )),
        None => refused.push(format!("writer.end_step_drift: only {} rank-steps", end_steps.len())),
    }
    p("reader.begin_step_ms_p50", "reader.begin_step", 5000, &mut out, &mut refused);
    p("reader.read_ms_p50", "reader.read", 5000, &mut out, &mut refused);

    let steps = traced.steps_begun.max(1) as f64;
    let c = &traced.counters;
    let per_step = format!("over {} steps", traced.steps_begun);
    out.push(metric(
        "protocol.handshake_msgs_per_step",
        c.handshake as f64 / steps,
        "msgs/step",
        per_step.clone(),
    ));
    out.push(metric(
        "protocol.ctrl_msgs_per_step",
        c.control as f64 / steps,
        "msgs/step",
        per_step.clone(),
    ));
    out.push(metric(
        "protocol.data_msgs_per_step",
        c.data as f64 / steps,
        "msgs/step",
        per_step.clone(),
    ));
    out.push(metric("protocol.retries", c.retries as f64, "count", "whole run"));
    out.push(metric("protocol.degraded_steps", c.degraded as f64, "count", "whole run"));
    out.push(metric(
        "transport.wire_bytes_per_step",
        c.wire_bytes as f64 / steps,
        "B/step",
        per_step.clone(),
    ));
    let efficiency =
        if c.wire_bytes > 0 { traced.needed_bytes as f64 / c.wire_bytes as f64 } else { 0.0 };
    out.push(metric("transport.payload_efficiency", efficiency, "ratio", "needed ÷ wire bytes"));
    out.push(metric(
        "plugins.exec_ms_per_step",
        c.plugin_ns as f64 / 1e6 / steps,
        "ms/step",
        per_step.clone(),
    ));
    let (selectivity, sel_note) = if traced.elems_in > 0 {
        (
            traced.elems_kept as f64 / traced.elems_in as f64,
            format!("{} elements in", traced.elems_in),
        )
    } else {
        (1.0, "no plug-in: every element kept".to_string())
    };
    out.push(metric("plugins.selectivity", selectivity, "ratio", sel_note));
    out.push(metric("codelet.apply_ns_per_elem", probe.apply_ns_per_elem, "ns/elem", "probe"));
    out.push(metric("ffs.encode_ms_per_step", probe.encode_ms, "ms/step", "probe"));
    out.push(metric("ffs.decode_ms_per_step", probe.decode_ms, "ms/step", "probe"));
    out.push(metric("redistribute.extract_ms_per_step", probe.extract_ms, "ms/step", "probe"));
    out.push(metric("redistribute.assemble_ms_per_step", probe.assemble_ms, "ms/step", "probe"));
    out.push(metric("runtime.writer_cpu_frac", untraced.writer_cpu, "ratio", "untraced run"));
    out.push(metric("runtime.reader_cpu_frac", untraced.reader_cpu, "ratio", "untraced run"));
    out.push(metric(
        "baseline.serial_steps_per_s",
        baseline_sps,
        "1/s",
        format!("{} steps", untraced.steps_begun),
    ));
    let t = traced.timing();
    let traced_sps = t.completed as f64 / t.elapsed_s.max(1e-9);
    out.push(metric(
        "trace.overhead_frac",
        1.0 - traced_sps / untraced_sps.max(1e-9),
        "ratio",
        format!("traced {traced_sps:.1} vs untraced {untraced_sps:.1} steps/s"),
    ));
    (out, refused)
}

fn print_self_times(traced: &Coupling) {
    let table = trace::layer_table(&traced.threads);
    let steps = traced.steps_begun.max(1) as f64;
    println!("per-layer self time (traced run; reactor spans overlap other ranks' turns):");
    println!(
        "  {:<14} {:>9} {:>12} {:>12} {:>14}",
        "layer", "spans", "total_ms", "self_ms", "self_ms/step"
    );
    for (layer, (n, total, own)) in &table {
        println!(
            "  {layer:<14} {n:>9} {:>12.3} {:>12.3} {:>14.5}",
            *total as f64 / 1e6,
            *own as f64 / 1e6,
            *own as f64 / 1e6 / steps
        );
    }
    let dropped: u64 = traced.threads.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        println!("  ({dropped} spans did not fit the trace buffer)");
    }
}

fn dump_spans(opts: &Opts, workload: &str, traced: &Coupling) -> std::io::Result<()> {
    let Some(dir) = &opts.out_dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{workload}-seed{}.jsonl", opts.seed));
    std::fs::write(&path, trace::to_json_lines(workload, &traced.threads))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn print_report<W: Workload>(
    w: &W,
    opts: &Opts,
    metrics: &[Metric],
    tally: &Tally,
    timed: &Coupling,
    traced_steps: Option<u64>,
    completed: u64,
    refused: &[String],
) {
    println!(
        "workload {} (seed {}, {} s, trace {})",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for m in metrics {
        let gate = if m.gated { "" } else { ", not gated" };
        println!("  {:<36} {:>16.6} {:<10} ({}{gate})", m.name, m.value, m.unit, m.samples);
    }
    let frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  {:<36} {:>16.6} {:<10} ({} of {} steps attempted)",
        "failed_step_frac", frac, "ratio", tally.failed, tally.attempted
    );
    for r in refused {
        println!("  refused: {r}");
    }
    for n in tally.notes.iter().take(10) {
        println!("  failure: {n}");
    }
    let mut fp = String::new();
    let _ = write!(
        fp,
        "{{{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"timed_steps\":{},\
         \"completed_steps\":{completed},\"traced_steps\":{},\"setup_rounds\":{SETUP_ROUNDS},\
         \"setup_steps\":{SETUP_STEPS},\"hints\":{{{}}},\"sizing\":{{{}}}}}",
        host_fingerprint(),
        json_str(w.name()),
        opts.seed,
        opts.seconds,
        opts.trace,
        timed.steps_begun,
        traced_steps.map_or("null".to_string(), |s| s.to_string()),
        describe_hints(&w.hints()),
        w.describe()
    );
    println!("fingerprint: {fp}");
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.gated)
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload runs a few steps end to end with every correctness
    /// gate on, traced and untraced.
    #[test]
    fn smoke_every_workload() {
        let opts = Opts {
            workload: "all".to_string(),
            seed: 7,
            seconds: 1,
            trace: false,
            smoke: true,
            out_dir: None,
        };
        for name in WORKLOADS {
            assert!(dispatch(name, &opts, Mode::Smoke), "{name} failed its smoke run");
        }
    }
}
