//! # SCIDIVE end-to-end benchmark
//!
//! Replays a seeded, generated VoIP capture through the deployed
//! pipeline — `ShardedScidive` with sketch rate state, the fold plane on,
//! default observation and one worker shard — and reports end-to-end
//! metrics, or, with `--trace 1`, per-layer metrics from a traced run.
//! Before it prints any number it checks the run's outputs against the
//! generator's ground truth; a mismatch prints the diff on stderr and
//! exits 1.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload signalling|media|attack-storm --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload media --seed 1 --seconds 10 --trace 0 --repeat 10
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`.
//! `attempted` counts frames submitted, attacks injected and benign
//! units; `failed` counts frames dropped, attacks missed and benign units
//! alerted. Both also count REGISTER floods reported twice; see
//! `truth.rs` for the two known sketch-state defects that are counted in
//! `failed` rather than refused.
//!
//! **`--trace 0`** (tracing off) runs the deployed pipeline: warm-up until
//! live state plateaus, then the timed replay, then the units already
//! started play out and `finish()` drains. The timed replay is a fixed
//! span of capture per `--seconds`, sized so that a 2-vCPU machine takes
//! about that long; the same seed and `--seconds` always give the same
//! frames, attempts and failures. Frames are generated in chunks outside
//! the timed windows, which are cut into half-second segments. Metrics:
//! `frames_per_s` and `cpu_us_per_frame` (medians over the segments; the
//! last segment holds `finish()`; each segment's frames per second are
//! taken over its wall time less the share the host stole from the CPU
//! time the pipeline was ready to use, so that a host that takes the
//! machine's CPUs away does not read as a slower program),
//! `setup_s` (median of a batch of
//! `ShardedScidive::new` calls timed while the process is idle, after
//! `finish()`), `peak_rss_mb` (up to two minutes of capture after the
//! warm-up),
//! `detect_delay_p50_ms`, `detect_delay_p90_ms` (capture time from each
//! injected attack's first frame to its first alert; fold-plane alerts
//! carry their fold boundary's time).
//!
//! **`--trace 1`** runs the deployed pipeline the same way (timing each
//! `submit`), then replays the same frames through `Scidive::on_frame`
//! (`engine.inline_frames_per_s`) and through the traced composition of
//! the engine's public stage calls, which records one span per call and
//! writes the first 2^19 spans of the timed window to
//! `e2ebench/out/spans-<workload>.csv`. Both replays must raise exactly
//! the deployed run's alert set, and the traced alerts must equal the
//! inline engine's.
//!
//! **`--repeat N`** runs the benchmark N times as child processes with
//! seeds `seed .. seed+N` and prints each metric's median, quartiles and
//! quartile spread (as Python's `statistics.quantiles(n=4)` gives them).

mod gen;
mod run;
mod sys;
mod truth;
mod workloads;

use gen::Generator;
use scidive_core::event::EventClass;
use serde_json::{json, Value};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--repeat" => args.repeat = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    Ok(args)
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let metrics = Value::Map(
        metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect(),
    );
    let line =
        json!({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics});
    serde_json::to_string(&line).expect("a JSON value always renders")
}

fn generator(args: &Args) -> Generator {
    Generator::new(workloads::by_name(&args.workload, args.seed).expect("validated workload"))
}

/// Prints the problems and the failing result line.
fn refuse(problems: &[String], attempted: u64, failed: u64) -> ExitCode {
    for p in problems {
        eprintln!("CHECK FAILED {p}");
    }
    println!(
        "{}",
        result_line(false, attempted, failed.max(1), &Vec::new())
    );
    ExitCode::FAILURE
}

fn run(args: &Args) -> ExitCode {
    let mut gen = generator(args);
    let dep = run::deployed(&mut gen, args.seconds, args.trace);
    let expected = gen.expected();
    let verdict = truth::check(
        expected,
        "deployed",
        &dep.report.alerts,
        dep.report.stats,
        dep.submitted,
        dep.report.dispatch.dropped,
        None,
        run::latch_bits(),
    );
    eprintln!(
        "{}: {} frames ({} timed in {:.2} s over {:.0} s of capture), {} alerts, {} attacks detected",
        args.workload,
        dep.submitted,
        dep.window.total.frames,
        dep.window.total.wall.as_secs_f64(),
        (dep.cut - gen.workload().warmup()) as f64 / 1e6,
        dep.report.alerts.len(),
        verdict.delays_ms.len(),
    );
    for n in &verdict.notes {
        eprintln!("COUNTED FAILURE {n}");
    }
    let mut problems = verdict.problems.clone();
    let metrics = if args.trace {
        // The replays run even after a failed check: their per-class
        // event counts make the diff.
        match per_layer(args, &dep, expected, &verdict) {
            Ok(m) => m,
            Err(p) => {
                problems.extend(p);
                Vec::new()
            }
        }
    } else {
        end_to_end(&dep, &verdict)
    };
    if !problems.is_empty() {
        return refuse(&problems, verdict.attempted, verdict.failed);
    }
    println!(
        "{}",
        result_line(true, verdict.attempted, verdict.failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn end_to_end(dep: &run::Deployed, verdict: &truth::Verdict) -> Metrics {
    // Set-ups are timed after the deployed run has finished, while the
    // process is idle. Timed before it, the freed set-ups' allocator
    // arenas would move the run's peak memory.
    let setups: Vec<f64> = run::setups().iter().map(Duration::as_secs_f64).collect();
    let w = &dep.window;
    let t = w.total;
    eprintln!(
        "whole timed window: {:.0} frames/s, {:.3} us CPU/frame, {:.1}% of the CPU time it was ready to use stolen by the host; {} segments",
        t.frames as f64 / t.wall.as_secs_f64(),
        t.cpu.as_secs_f64() * 1e6 / t.frames.max(1) as f64,
        100.0 * t.stolen.as_secs_f64() / (t.cpu + t.stolen).as_secs_f64(),
        w.segments.len()
    );
    let mut delays = verdict.delays_ms.clone();
    delays.sort_by(f64::total_cmp);
    let beyond_p90 = delays.len() - (delays.len() as f64 * 0.9).ceil() as usize;
    eprintln!(
        "detection delay over {} attacks ({beyond_p90} beyond p90), {} set-ups",
        delays.len(),
        setups.len()
    );
    vec![
        ("frames_per_s", w.median_frames_per_s(), "1/s"),
        ("cpu_us_per_frame", w.median_cpu_us_per_frame(), "us"),
        ("setup_s", sys::median(&setups), "s"),
        ("peak_rss_mb", dep.peak_rss_mb, "MB"),
        ("detect_delay_p50_ms", sys::quantile(&delays, 0.5), "ms"),
        ("detect_delay_p90_ms", sys::quantile(&delays, 0.9), "ms"),
    ]
}

fn per_layer(
    args: &Args,
    dep: &run::Deployed,
    expected: &truth::Expected,
    deployed: &truth::Verdict,
) -> Result<Metrics, Vec<String>> {
    let replay = || {
        let mut g = generator(args);
        g.cut_at(dep.cut);
        g
    };
    let (inline_alerts, inline_stats, inline_w) = run::inline(replay());
    let dump = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.csv", args.workload));
    let tr = run::traced(replay(), &dump).map_err(|e| vec![format!("span dump: {e}")])?;
    let mut problems = Vec::new();
    let frames = expected.frames();
    for (label, alerts, stats, by_class) in [
        ("inline", &inline_alerts, inline_stats, None),
        (
            "traced",
            &tr.alerts,
            tr.stats,
            Some(tr.events_by_class.as_slice()),
        ),
    ] {
        let v = truth::check(
            expected,
            label,
            alerts,
            stats,
            frames,
            0,
            by_class,
            run::latch_bits(),
        );
        problems.extend(v.problems);
        if v.pairs != deployed.pairs {
            problems.push(format!(
                "{label}: alert set differs from the deployed run's"
            ));
        }
    }
    if tr.alerts != inline_alerts {
        problems.push("traced: alerts differ from Scidive::on_frame's".into());
    }
    if !problems.is_empty() {
        return Err(problems);
    }

    let ns = |layer: run::Layer| tr.layer[layer as usize].1 as f64;
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let class = |c: EventClass| {
        let (n, t) = tr.rules_by_class[c as usize];
        per(t as f64, n)
    };
    let obs = &dep.report.observation;
    let inline_fps = inline_w.total.frames as f64 / inline_w.total.wall.as_secs_f64();
    eprintln!(
        "traced: {} spans ({} kept in {}), rules by event class:",
        tr.spans_total,
        tr.spans_kept,
        dump.display()
    );
    for c in EventClass::ALL {
        let (n, t) = tr.rules_by_class[c as usize];
        if n > 0 {
            eprintln!(
                "  {:<24} {n:>10} events {:>10.0} ns/event",
                c.name(),
                per(t as f64, n)
            );
        }
    }
    Ok(vec![
        (
            "distill.ns_per_frame",
            per(ns(run::Layer::Distill), tr.frames),
            "ns",
        ),
        (
            "distill.footprint_ratio",
            per(tr.footprints as f64, tr.frames),
            "ratio",
        ),
        (
            "routing.ns_per_footprint",
            per(ns(run::Layer::Routing), tr.footprints),
            "ns",
        ),
        (
            "routing.synthetic_share",
            per(tr.synthetic as f64, tr.footprints),
            "ratio",
        ),
        (
            "trail.ns_per_footprint",
            per(ns(run::Layer::Trail), tr.footprints),
            "ns",
        ),
        ("trail.live_peak", tr.trail_peak as f64, "count"),
        (
            "trail.retained_footprints",
            tr.retained_peak as f64,
            "count",
        ),
        (
            "event.ns_per_footprint",
            per(ns(run::Layer::Event), tr.footprints),
            "ns",
        ),
        (
            "event.events_per_footprint",
            per(tr.events as f64, tr.footprints),
            "ratio",
        ),
        (
            "rules.ns_per_event",
            per(ns(run::Layer::Rules), tr.events),
            "ns",
        ),
        (
            "rules.ns_per_event.CallEstablished",
            class(EventClass::CallEstablished),
            "ns",
        ),
        (
            "rules.ns_per_event.CallTornDown",
            class(EventClass::CallTornDown),
            "ns",
        ),
        (
            "rules.evals_per_event",
            per(tr.rule_evals as f64, tr.events),
            "ratio",
        ),
        ("rules.state", tr.rule_state_peak as f64, "count"),
        ("rate.bytes", obs.gauges.rate_bytes as f64, "B"),
        ("fold.folds", obs.dispatch.folds as f64, "count"),
        (
            "fold.candidates",
            obs.dispatch.fold_candidates as f64,
            "count",
        ),
        ("fold.rate_bytes", obs.gauges.fold_rate_bytes as f64, "B"),
        ("alerts", dep.report.alerts.len() as f64, "count"),
        (
            "shard.submit_ns_per_frame",
            per(dep.submit_time.as_nanos() as f64, dep.submit_frames),
            "ns",
        ),
        ("shard.drain_s", dep.drain.as_secs_f64(), "s"),
        (
            "shard.enqueue_blocked_share",
            per(
                obs.dispatch.enqueue_blocked as f64,
                obs.dispatch.batches_sent,
            ),
            "ratio",
        ),
        (
            "shard.queue_depth_max",
            obs.dispatch.max_queue_depth as f64,
            "count",
        ),
        ("engine.inline_frames_per_s", inline_fps, "1/s"),
        (
            "trace.overhead_ratio",
            tr.wall.as_secs_f64() * inline_fps / tr.frames.max(1) as f64,
            "ratio",
        ),
    ])
}

/// `--repeat N`: N child runs on consecutive seeds, then each metric's
/// median, quartiles and quartile spread.
fn repeat(args: &Args, n: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..n {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let line = match &out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .unwrap_or("")
                .to_string(),
            _ => {
                eprintln!("run with seed {seed} failed");
                return ExitCode::FAILURE;
            }
        };
        println!("seed {seed}: {line}");
        let parsed: Value = match serde_json::from_str(&line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("run with seed {seed}: unreadable result line: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(Value::Map(metrics)) = parsed.get("metrics") else {
            eprintln!("run with seed {seed}: result line has no metrics");
            return ExitCode::FAILURE;
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            match series.iter_mut().find(|(n, ..)| n == name) {
                Some((_, _, v)) => v.push(value),
                None => series.push((name.clone(), unit.to_string(), vec![value])),
            }
        }
    }
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>9}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, unit, values) in &series {
        if values.len() < 2 {
            continue;
        }
        let [q1, q2, q3] = sys::quartiles(values);
        println!(
            "{:<36} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>8.2}%  {unit}",
            name,
            100.0 * (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE),
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.repeat {
        Some(n) => repeat(&args, n),
        None => run(&args),
    }
}
