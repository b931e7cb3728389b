//! The three ways a run drives the frames: the deployed sharded pipeline
//! (end-to-end timing), the inline single engine (the single-thread
//! baseline) and the traced composition of the engine's stages
//! (per-layer spans).
//!
//! Frames are generated in chunks outside the timed windows, so the
//! generator's own cost never counts as pipeline time.

use crate::gen::Generator;
use crate::sys;
use scidive_core::alert::Alert;
use scidive_core::distill::Distiller;
use scidive_core::engine::{PipelineStats, Scidive, ScidiveConfig};
use scidive_core::event::{EventClass, EventGenerator};
use scidive_core::rate::RateHub;
use scidive_core::routing::SessionRouter;
use scidive_core::rules::{AlertSink, CompiledRuleset, RuleCtx};
use scidive_core::shard::{ShardedReport, ShardedScidive};
use scidive_core::trail::TrailStore;
use scidive_netsim::packet::IpPacket;
use scidive_netsim::time::{SimDuration, SimTime};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Frames generated per chunk.
const CHUNK: usize = 1 << 13;
/// Set-ups timed per run (see [`setups`]).
const SETUPS: usize = 1024;
/// Capture time (µs) after the warm-up up to which peak memory is read.
/// Alerts and ground truth accumulate with every frame, so a peak read at
/// the end of the run would grow with how many frames the run got
/// through; read at a fixed capture time it does not.
const RSS_SPAN_US: u64 = 120_000_000;
/// Batches each shard ring holds.
pub const QUEUE_DEPTH: usize = 64;
/// Worker shards of the deployed pipeline: one worker plus the
/// submitting thread fit a 2-CPU machine.
pub const SHARDS: usize = 1;

type Frame = (SimTime, IpPacket);

/// The deployed configuration: sketch rate state, fold plane on (the
/// default), default observation, and retention windows at least as
/// long as every workload's hold.
pub fn deployed_config() -> ScidiveConfig {
    let mut config = ScidiveConfig {
        exact_rate_state: false,
        ..ScidiveConfig::default()
    };
    let retention = SimDuration::from_micros(crate::workloads::RETENTION_US);
    config.trails.idle_timeout = retention;
    config.events.session_timeout = retention;
    config
}

/// Bits per latch set of the deployed rate state, as `LatchSet` rounds
/// them.
pub fn latch_bits() -> u64 {
    deployed_config()
        .rate
        .latch_bits
        .next_power_of_two()
        .max(64) as u64
}

/// Config → ruleset compile → pipeline ready to accept frames.
fn setup() -> (ShardedScidive, Duration) {
    let start = Instant::now();
    let ids = ShardedScidive::new(deployed_config(), SHARDS, QUEUE_DEPTH);
    (ids, start.elapsed())
}

/// Times a batch of set-ups while no other pipeline runs, finishing
/// each pipeline (untimed) before the next set-up.
pub fn setups() -> Vec<Duration> {
    (0..SETUPS)
        .map(|_| {
            let (ids, took) = setup();
            ids.finish();
            took
        })
        .collect()
}

/// Submits the warm-up: every frame due before the workload's warm-up
/// time, untimed.
fn warm_up(gen: &mut Generator, chunk: &mut Vec<Frame>, mut feed: impl FnMut(&Frame)) {
    let until = gen.workload().warmup();
    loop {
        chunk.clear();
        let ended = gen.fill(chunk, CHUNK, until);
        chunk.iter().for_each(&mut feed);
        if ended || chunk.len() < CHUNK {
            return;
        }
    }
}

/// Wall time of one timed segment (see [`Window::segments`]).
const SEGMENT: Duration = Duration::from_millis(500);

/// One stretch of timed work.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sample {
    pub wall: Duration,
    /// Process CPU time.
    pub cpu: Duration,
    /// Steal time over the stretch (see [`sys::stolen`]).
    pub stolen: Duration,
    /// Frames the pipeline finished.
    pub frames: u64,
}

impl Sample {
    fn merge(&mut self, other: Sample) {
        self.wall += other.wall;
        self.cpu += other.cpu;
        self.stolen += other.stolen;
        self.frames += other.frames;
    }

    /// Frames per second of the wall time the host left the program.
    /// Nothing else runs on the machine, so the steal fell on the
    /// program's threads: of the CPU time they were ready to use
    /// (`cpu + stolen`), the host took `stolen`, and the wall time
    /// shrinks by that share. Both are read in 10 ms ticks, coarse
    /// against a segment, so the share is capped at three quarters.
    fn frames_per_s(&self) -> f64 {
        let ready = (self.cpu + self.stolen).as_secs_f64();
        let share = if ready > 0.0 {
            (self.stolen.as_secs_f64() / ready).min(0.75)
        } else {
            0.0
        };
        self.frames as f64 / (self.wall.as_secs_f64() * (1.0 - share))
    }
}

/// Timed-window totals of one run.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub total: Sample,
    /// The timed windows in order, merged into segments of at least
    /// [`SEGMENT`] wall time (the last one may be shorter).
    pub segments: Vec<Sample>,
}

impl Window {
    fn add(&mut self, sample: Sample) {
        self.total.merge(sample);
        match self.segments.last_mut() {
            Some(seg) if seg.wall < SEGMENT => seg.merge(sample),
            _ => self.segments.push(sample),
        }
    }

    /// Median over the segments of frames per second, each over the wall
    /// time the host left the machine. A median, so that a stretch in
    /// which the host takes the CPUs away moves it little.
    pub fn median_frames_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.segments.iter().map(Sample::frames_per_s).collect();
        sys::median(&rates)
    }

    /// Median over the segments of CPU time per frame, in µs.
    pub fn median_cpu_us_per_frame(&self) -> f64 {
        let costs: Vec<f64> = self
            .segments
            .iter()
            .map(|s| s.cpu.as_secs_f64() * 1e6 / s.frames.max(1) as f64)
            .collect();
        sys::median(&costs)
    }
}

/// Counter readings at the start of a timed stretch.
struct Start {
    at: Instant,
    cpu: Duration,
    stolen: Duration,
    frames: u64,
}

impl Start {
    fn now(frames: u64) -> Start {
        Start {
            cpu: sys::process_cpu(),
            stolen: sys::stolen(),
            frames,
            at: Instant::now(),
        }
    }

    /// The stretch from this start to now, `frames` finished by now.
    fn sample(&self, frames: u64) -> Sample {
        Sample {
            wall: self.at.elapsed(),
            cpu: sys::process_cpu().saturating_sub(self.cpu),
            stolen: sys::stolen().saturating_sub(self.stolen),
            frames: frames - self.frames,
        }
    }
}

/// The deployed run's results.
pub struct Deployed {
    pub report: ShardedReport,
    pub window: Window,
    pub submitted: u64,
    /// The generator cut: replaying up to it yields the same frames.
    pub cut: u64,
    /// Time inside `submit` over the timed window (traced runs only).
    pub submit_time: Duration,
    pub submit_frames: u64,
    /// Time inside `finish`.
    pub drain: Duration,
    /// Peak resident memory (MiB) up to [`RSS_SPAN_US`] of capture after
    /// the warm-up, or to the end of the run if it ends earlier.
    pub peak_rss_mb: f64,
}

/// Replays the workload through the deployed pipeline: warm-up, then
/// timed chunks up to the cut, `seconds` times the workload's
/// [`pace`](crate::gen::Workload::pace) of capture later, then no new
/// units — the units already started play out — and `finish`. The cut
/// is a capture time, not a wall time, so a seed always replays the same
/// frames and ground truth however fast the machine runs them. The timed
/// windows run from each
/// chunk's first submit to its last and through `finish`; frames are
/// counted when the worker completes them, so a backlog drained while
/// the next chunk is generated is not credited to the pipeline.
pub fn deployed(gen: &mut Generator, seconds: f64, time_submits: bool) -> Deployed {
    let (mut ids, _) = setup();
    let processed = |ids: &ShardedScidive| ids.observation().pipeline.frames;
    let cut = gen.workload().warmup() + (seconds * gen.workload().pace() as f64) as u64;
    gen.cut_at(cut);
    let mut chunk = Vec::with_capacity(CHUNK);
    warm_up(gen, &mut chunk, |(t, p)| ids.submit(*t, p));
    let mut w = Window::default();
    let (mut submit_time, mut submit_frames) = (Duration::ZERO, 0);
    let rss_at = gen.workload().warmup() + RSS_SPAN_US;
    let mut peak_rss_mb = None;
    loop {
        chunk.clear();
        let ended = gen.fill(&mut chunk, CHUNK, u64::MAX);
        let start = Start::now(processed(&ids));
        if time_submits {
            for (t, p) in &chunk {
                let s = Instant::now();
                ids.submit(*t, p);
                submit_time += s.elapsed();
            }
            submit_frames += chunk.len() as u64;
        } else {
            for (t, p) in &chunk {
                ids.submit(*t, p);
            }
        }
        w.add(start.sample(processed(&ids)));
        if peak_rss_mb.is_none() && gen.now() >= rss_at {
            peak_rss_mb = Some(sys::peak_rss_mb());
        }
        if ended {
            break;
        }
    }
    let start = Start::now(processed(&ids));
    let report = ids.finish();
    let end = start.sample(report.stats.frames);
    let drain = end.wall;
    w.add(end);
    Deployed {
        report,
        window: w,
        submitted: gen.frames(),
        cut,
        submit_time,
        submit_frames,
        drain,
        peak_rss_mb: peak_rss_mb.unwrap_or_else(sys::peak_rss_mb),
    }
}

/// The inline single engine over the same frames: its alerts, counters
/// and timed-window throughput.
pub fn inline(mut gen: Generator) -> (Vec<Alert>, PipelineStats, Window) {
    let mut ids = Scidive::new(deployed_config());
    let mut chunk = Vec::with_capacity(CHUNK);
    warm_up(&mut gen, &mut chunk, |(t, p)| {
        ids.on_frame(*t, p);
    });
    let mut w = Window::default();
    loop {
        chunk.clear();
        let ended = gen.fill(&mut chunk, CHUNK, u64::MAX);
        let t0 = Instant::now();
        for (t, p) in &chunk {
            ids.on_frame(*t, p);
        }
        w.add(Sample {
            wall: t0.elapsed(),
            frames: chunk.len() as u64,
            ..Sample::default()
        });
        if ended {
            break;
        }
    }
    (ids.alerts().to_vec(), ids.stats(), w)
}

/// Span layers of the traced composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Distill,
    Routing,
    Trail,
    Event,
    Rules,
}

pub const LAYERS: [&str; 5] = ["distill", "routing", "trail", "event", "rules"];

/// One leaf span: a single call into a layer.
#[derive(Debug, Clone, Copy)]
struct Span {
    start_ns: u64,
    dur_ns: u32,
    frame: u32,
    layer: Layer,
    /// The event class for `rules` spans, else 0.
    class: u8,
}

/// Spans kept in memory for the dump; totals cover every span.
const SPAN_CAP: usize = 1 << 19;

/// Per-layer totals over the timed window, from the spans.
#[derive(Debug, Default, Clone)]
pub struct Traced {
    pub frames: u64,
    pub footprints: u64,
    pub events: u64,
    pub synthetic: u64,
    /// `(calls, ns)` per [`Layer`].
    pub layer: [(u64, u64); 5],
    /// `(events, ns)` of `rules` spans per event class.
    pub rules_by_class: Vec<(u64, u64)>,
    pub rule_evals: u64,
    pub trail_peak: u64,
    pub retained_peak: u64,
    pub rule_state_peak: u64,
    /// Wall time of the timed window, side-router spans excluded.
    pub wall: Duration,
    pub alerts: Vec<Alert>,
    pub stats: PipelineStats,
    /// Events generated per class over the whole run.
    pub events_by_class: Vec<u64>,
    pub spans_kept: usize,
    pub spans_total: u64,
}

struct Recorder {
    epoch: Instant,
    on: bool,
    kept: Vec<Span>,
    total: u64,
    layer: [(u64, u64); 5],
    by_class: Vec<(u64, u64)>,
}

impl Recorder {
    fn record(&mut self, layer: Layer, class: u8, frame: u32, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let dur = end.duration_since(start).as_nanos() as u64;
        self.total += 1;
        let slot = &mut self.layer[layer as usize];
        slot.0 += 1;
        slot.1 += dur;
        if layer == Layer::Rules {
            let c = &mut self.by_class[class as usize];
            c.0 += 1;
            c.1 += dur;
        }
        if self.kept.len() < SPAN_CAP {
            self.kept.push(Span {
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur.min(u64::from(u32::MAX)) as u32,
                frame,
                layer,
                class,
            });
        }
    }
}

/// The single-engine pipeline composed from the same public calls
/// `Scidive` makes, plus a side router.
struct Composition {
    distiller: Distiller,
    trails: TrailStore,
    events: EventGenerator,
    rules: CompiledRuleset,
    rates: RateHub,
    router: SessionRouter,
    alerts: Vec<Alert>,
    stats: PipelineStats,
    by_class: Vec<u64>,
    frame_no: u32,
}

impl Composition {
    fn new() -> Composition {
        let config = deployed_config();
        let protocols = config.protocols.clone();
        let mut events_cfg = config.events.clone();
        events_cfg.exact_rate_state = config.exact_rate_state;
        events_cfg.rate = config.rate.clone();
        Composition {
            distiller: Distiller::with_protocols(config.distiller.clone(), protocols.clone()),
            trails: TrailStore::with_protocols(config.trails.clone(), protocols.clone()),
            events: EventGenerator::with_protocols(events_cfg, &protocols),
            rules: config
                .blueprint()
                .expect("builtin ruleset compiles")
                .build(config.full_scan_rules, config.trails.idle_timeout),
            rates: RateHub::new(config.rate.clone(), config.exact_rate_state),
            router: SessionRouter::with_protocols(1, config.trails.idle_timeout, protocols),
            alerts: Vec::new(),
            stats: PipelineStats::default(),
            by_class: vec![0; EventClass::COUNT],
            frame_no: 0,
        }
    }

    /// One frame through every stage, a span around each call.
    fn frame(&mut self, time: SimTime, pkt: &IpPacket, rec: &mut Recorder, out: &mut Traced) {
        let frame = self.frame_no;
        self.frame_no = self.frame_no.wrapping_add(1);
        self.stats.frames += 1;
        let s = Instant::now();
        let fp = self.distiller.distill(time, pkt);
        let mut e = Instant::now();
        rec.record(Layer::Distill, 0, frame, s, e);
        let Some(fp) = fp else { return };
        self.stats.footprints += 1;
        let s = e;
        let decision = self.router.route(&fp);
        e = Instant::now();
        rec.record(Layer::Routing, 0, frame, s, e);
        let s = e;
        let (fp, key) = self.trails.insert(fp);
        e = Instant::now();
        rec.record(Layer::Trail, 0, frame, s, e);
        let s = e;
        let evs = self.events.on_footprint(&fp, &key, &self.trails);
        rec.record(Layer::Event, 0, frame, s, Instant::now());
        let ctx = RuleCtx {
            now: time,
            trails: &self.trails,
            rates: &self.rates,
        };
        let mut sink = AlertSink::new(&mut self.alerts);
        for ev in &evs {
            self.by_class[ev.class() as usize] += 1;
            let s = Instant::now();
            self.rules.dispatch(ev, &ctx, &mut sink);
            rec.record(Layer::Rules, ev.class() as u8, frame, s, Instant::now());
        }
        self.stats.events += evs.len() as u64;
        if rec.on {
            out.frames += 1;
            out.footprints += 1;
            out.events += evs.len() as u64;
            out.synthetic += u64::from(decision.overflow);
        }
        if frame.is_multiple_of(1024) {
            out.trail_peak = out.trail_peak.max(self.trails.trail_count() as u64);
            out.retained_peak = out.retained_peak.max(self.trails.footprint_count() as u64);
            out.rule_state_peak = out.rule_state_peak.max(self.rules.state_stats().sessions);
        }
    }

    fn rule_evals(&self) -> u64 {
        self.rules.rule_evals().iter().map(|r| r.evals).sum()
    }
}

/// Runs the traced composition over the frames of `gen`: `Distiller::distill`
/// → `TrailStore::insert` → `EventGenerator::on_footprint` →
/// `CompiledRuleset::dispatch`, with `SessionRouter::route` on a side
/// router fed the same footprints. Spans of the timed window (after the
/// warm-up) are aggregated per layer; the first [`SPAN_CAP`] are written
/// to `dump` as `layer,class,frame,start_ns,end_ns` lines, times in ns
/// since the run began.
pub fn traced(mut gen: Generator, dump: &std::path::Path) -> std::io::Result<Traced> {
    let mut comp = Composition::new();
    let mut rec = Recorder {
        epoch: Instant::now(),
        on: false,
        kept: Vec::new(),
        total: 0,
        layer: [(0, 0); 5],
        by_class: vec![(0, 0); EventClass::COUNT],
    };
    let mut out = Traced::default();
    let mut chunk = Vec::with_capacity(CHUNK);
    warm_up(&mut gen, &mut chunk, |(t, p)| {
        comp.frame(*t, p, &mut rec, &mut out)
    });
    let evals_at_warm = comp.rule_evals();
    rec.on = true;
    loop {
        chunk.clear();
        let ended = gen.fill(&mut chunk, CHUNK, u64::MAX);
        let t0 = Instant::now();
        for (t, p) in &chunk {
            comp.frame(*t, p, &mut rec, &mut out);
        }
        out.wall += t0.elapsed();
        if ended {
            break;
        }
    }
    out.rule_evals = comp.rule_evals() - evals_at_warm;
    // The side router is not part of the engine's own work.
    out.wall = out
        .wall
        .saturating_sub(Duration::from_nanos(rec.layer[Layer::Routing as usize].1));
    out.layer = rec.layer;
    out.rules_by_class = std::mem::take(&mut rec.by_class);
    out.spans_kept = rec.kept.len();
    out.spans_total = rec.total;
    comp.stats.alerts = comp.alerts.len() as u64;
    out.stats = comp.stats;
    out.alerts = comp.alerts;
    out.events_by_class = comp.by_class;
    if let Some(dir) = dump.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(dump)?);
    writeln!(f, "layer,class,frame,start_ns,end_ns")?;
    for s in &rec.kept {
        let class = match s.layer {
            Layer::Rules => EventClass::ALL[s.class as usize].name(),
            _ => "-",
        };
        let end = s.start_ns + u64::from(s.dur_ns);
        writeln!(
            f,
            "{},{class},{},{},{end}",
            LAYERS[s.layer as usize], s.frame, s.start_ns
        )?;
    }
    f.flush()?;
    Ok(out)
}
