//! Seeded, streaming frame generator with ground truth.
//!
//! A workload is a set of *unit streams*. Stream `s` starts its unit `k`
//! at `phase_s + k * period_s` (capture time); a unit is one dialog, call
//! or attack campaign and owns a handful of frame *sources* — one-shot
//! packets or periodic RTP streams. The generator merges every live
//! unit's sources by `(time, unit order, source index)`, so frames come
//! out in time order without the capture ever being materialised, and
//! the same seed always yields the same bytes.
//!
//! Every unit also reports its [`Truth`]: the frames and events it must
//! produce and the attack (rule and key) it injects, if any. The
//! generator folds each into an [`Expected`] as the unit starts, so the
//! ground truth of a long run costs no more memory than a short one's.

use crate::truth::Expected;
use scidive_core::event::EventClass;
use scidive_netsim::packet::IpPacket;
use scidive_netsim::time::SimTime;
use scidive_rtp::packet::{RtpHeader, RtpPacket};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// Capture time of the generator's zero, so no frame sits at `SimTime::ZERO`.
pub const EPOCH_US: u64 = 1_000_000;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent generator for `(seed, parts...)`.
    pub fn derive(seed: u64, parts: &[u64]) -> Rng {
        let mut h = mix(seed);
        for &p in parts {
            h = mix(h ^ p);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo).max(1)
    }
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A periodic RTP sender: one packet every `period` µs.
#[derive(Debug, Clone)]
pub struct RtpStream {
    pub at: u64,
    pub period: u64,
    pub count: u32,
    pub seq: u16,
    pub ts: u32,
    pub ssrc: u32,
    pub src: (Ipv4Addr, u16),
    pub dst: (Ipv4Addr, u16),
}

impl RtpStream {
    /// Send time of the `n`th packet.
    pub fn time_of(&self, n: u32) -> u64 {
        self.at + u64::from(n) * self.period
    }

    /// The stream cut to its first `n` packets.
    pub fn take(mut self, n: u32) -> RtpStream {
        self.count = self.count.min(n);
        self
    }

    /// The stream from its `n`th packet on, sent to `dst` instead.
    pub fn resume_from(&self, n: u32, dst: (Ipv4Addr, u16)) -> RtpStream {
        RtpStream {
            at: self.time_of(n),
            count: self.count.saturating_sub(n),
            seq: self.seq.wrapping_add(n as u16),
            ts: self.ts.wrapping_add(n * 160),
            dst,
            ..self.clone()
        }
    }

    /// The `n`th packet, with its sequence number shifted by `seq_shift`.
    pub fn packet(&self, n: u32, seq_shift: u16) -> IpPacket {
        let header = RtpHeader::new(
            0,
            self.seq.wrapping_add(n as u16).wrapping_add(seq_shift),
            self.ts.wrapping_add(n * 160),
            self.ssrc,
        );
        let payload = RtpPacket::new(header, vec![0xd5u8; 160]).encode();
        IpPacket::udp(self.src.0, self.src.1, self.dst.0, self.dst.1, payload)
    }
}

/// Where a unit's frames come from.
#[derive(Debug)]
pub enum Source {
    /// One prebuilt frame at a capture time (µs).
    Packet(u64, IpPacket),
    /// A periodic RTP stream; packets are rendered as they are due.
    Rtp(RtpStream),
}

impl Source {
    fn frames(&self) -> u64 {
        match self {
            Source::Packet(..) => 1,
            Source::Rtp(s) => u64::from(s.count),
        }
    }
}

/// What a unit is, for the benign-alert check. The workloads encode it in
/// every Call-ID the unit uses (see `workloads::role_of`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Must never alert.
    Benign,
    /// Carries an attack.
    Attack,
    /// Unique-Call-ID spray: may or may not alert.
    Spray,
}

/// One injected attack the pipeline must detect.
#[derive(Debug, Clone)]
pub struct Attack {
    /// The rule that must fire.
    pub rule: &'static str,
    /// The session id or source key the alert must carry.
    pub key: String,
    /// Capture time (µs) of the attack's first frame.
    pub first_frame: u64,
}

/// A unit's ground truth.
#[derive(Debug, Clone)]
pub struct Truth {
    pub role: Role,
    /// Events the unit must generate (session and identity plane), by class.
    pub events: Vec<(EventClass, u64)>,
    /// The attack whose alert this unit must raise; `None` for benign
    /// and spray units.
    pub attack: Option<Attack>,
    /// Frames emitted (filled in by the generator).
    pub frames: u64,
}

impl Truth {
    pub fn benign(events: &[(EventClass, u64)]) -> Truth {
        Truth {
            role: Role::Benign,
            events: events.to_vec(),
            attack: None,
            frames: 0,
        }
    }

    pub fn attack(events: &[(EventClass, u64)], attack: Attack) -> Truth {
        Truth {
            role: Role::Attack,
            events: events.to_vec(),
            attack: Some(attack),
            frames: 0,
        }
    }
}

/// A stream of units: unit `k` starts at `phase + k * period` (µs).
#[derive(Debug, Clone, Copy)]
pub struct UnitStream {
    pub period: u64,
    pub phase: u64,
}

/// A workload: its unit streams and how to build each unit.
pub trait Workload {
    fn streams(&self) -> Vec<UnitStream>;
    /// Builds unit `k` of stream `stream`, starting at `start` (µs),
    /// pushing its frame sources into `out`.
    fn build(&self, stream: usize, k: u64, start: u64, out: &mut Vec<Source>) -> Truth;
    /// Capture time after which live state has reached its plateau.
    fn warmup(&self) -> u64;
    /// Capture time (µs) one second of a run's `--seconds` covers: sized
    /// so that the deployed pipeline takes about a second of wall time
    /// over it on a 2-vCPU machine.
    fn pace(&self) -> u64;
}

enum Pending {
    Packet(Option<IpPacket>),
    Rtp(RtpStream),
}

struct LiveUnit {
    sources: Vec<Pending>,
    pending: usize,
}

/// The merged frame stream of one workload and seed.
pub struct Generator {
    workload: Box<dyn Workload>,
    streams: Vec<(UnitStream, u64)>,
    cut: Option<u64>,
    live: Vec<Option<LiveUnit>>,
    free: Vec<usize>,
    heap: BinaryHeap<Reverse<(u64, u64, u32, u32)>>,
    units_started: u64,
    expected: Expected,
    frames: u64,
    last_time: u64,
}

impl Generator {
    pub fn new(workload: Box<dyn Workload>) -> Generator {
        let streams = workload.streams().into_iter().map(|s| (s, 0)).collect();
        Generator {
            workload,
            streams,
            cut: None,
            live: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            units_started: 0,
            expected: Expected::default(),
            frames: 0,
            last_time: 0,
        }
    }

    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// Starts no unit at or after capture time `t` (µs); the units
    /// already started still emit all their frames.
    pub fn cut_at(&mut self, t: u64) {
        self.cut = Some(self.cut.map_or(t, |c| c.min(t)));
    }

    /// Ground truth of every unit started so far.
    pub fn expected(&self) -> &Expected {
        &self.expected
    }

    /// Frames emitted so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Capture time (µs) of the last frame emitted.
    pub fn now(&self) -> u64 {
        self.last_time
    }

    fn next_start(&self) -> Option<(usize, u64)> {
        let (i, t) = self
            .streams
            .iter()
            .enumerate()
            .map(|(i, (s, k))| (i, s.phase + k * s.period))
            .min_by_key(|&(i, t)| (t, i))?;
        match self.cut {
            Some(c) if t >= c => None,
            _ => Some((i, t)),
        }
    }

    fn start_unit(&mut self, stream: usize, start: u64) {
        let k = self.streams[stream].1;
        self.streams[stream].1 += 1;
        let mut sources = Vec::new();
        let mut truth = self.workload.build(stream, k, start, &mut sources);
        truth.frames = sources.iter().map(Source::frames).sum();
        self.expected.add(&truth);
        let order = self.units_started;
        self.units_started += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.live.push(None);
            self.live.len() - 1
        });
        let mut pending = 0;
        let mut slots = Vec::with_capacity(sources.len());
        for (i, src) in sources.into_iter().enumerate() {
            let (at, live) = match src {
                Source::Packet(at, pkt) => (at, Pending::Packet(Some(pkt))),
                Source::Rtp(s) => (s.at, Pending::Rtp(s)),
            };
            if !matches!(&live, Pending::Rtp(s) if s.count == 0) {
                debug_assert!(at >= start, "a unit's frames start with the unit");
                pending += 1;
                self.heap.push(Reverse((at, order, slot as u32, i as u32)));
            }
            slots.push(live);
        }
        if pending == 0 {
            self.free.push(slot);
        } else {
            self.live[slot] = Some(LiveUnit {
                sources: slots,
                pending,
            });
        }
    }

    /// The next frame, or `None` once the cut has been reached and every
    /// started unit has finished.
    pub fn next_frame(&mut self) -> Option<(SimTime, IpPacket)> {
        self.peek_time()?;
        let Reverse((at, order, slot, idx)) = self.heap.pop()?;
        let unit = self.live[slot as usize].as_mut().expect("live unit");
        let pkt = match &mut unit.sources[idx as usize] {
            Pending::Packet(pkt) => {
                unit.pending -= 1;
                pkt.take().expect("one-shot frame emitted once")
            }
            Pending::Rtp(stream) => {
                let pkt = stream.packet(0, 0);
                *stream = stream.resume_from(1, stream.dst);
                if stream.count > 0 {
                    self.heap.push(Reverse((stream.at, order, slot, idx)));
                } else {
                    unit.pending -= 1;
                }
                pkt
            }
        };
        if unit.pending == 0 {
            self.live[slot as usize] = None;
            self.free.push(slot as usize);
        }
        self.frames += 1;
        self.last_time = at;
        Some((SimTime::from_micros(EPOCH_US + at), pkt))
    }

    /// Appends frames to `out` until it holds `max` frames, the next frame
    /// is due at or after `until` (µs), or the stream ends. Returns
    /// whether the stream has ended.
    pub fn fill(&mut self, out: &mut Vec<(SimTime, IpPacket)>, max: usize, until: u64) -> bool {
        while out.len() < max {
            if self.peek_time().is_some_and(|t| t >= until) {
                return false;
            }
            match self.next_frame() {
                Some(frame) => out.push(frame),
                None => return true,
            }
        }
        false
    }

    /// Capture time (µs) of the next frame, starting any unit due first.
    fn peek_time(&mut self) -> Option<u64> {
        loop {
            let due = self.heap.peek().map(|Reverse((t, ..))| *t);
            match (self.next_start(), due) {
                (Some((stream, start)), Some(t)) if start <= t => self.start_unit(stream, start),
                (Some((stream, start)), None) => self.start_unit(stream, start),
                (_, due) => return due,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, NAMES};

    /// FNV-1a over every frame's time and wire bytes, the Call-IDs seen
    /// and the injected attacks' first frames.
    fn digest(name: &str, seed: u64, frames: usize) -> (u64, Vec<String>, Vec<u64>) {
        let mut gen = Generator::new(by_name(name, seed).expect("known workload"));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut last = SimTime::ZERO;
        let mut calls = Vec::new();
        for _ in 0..frames {
            let (t, pkt) = gen.next_frame().expect("workloads are unbounded until cut");
            assert!(t >= last, "{name}: frames out of time order");
            last = t;
            eat(&t.as_micros().to_le_bytes());
            eat(&pkt.src.octets());
            eat(&pkt.dst.octets());
            eat(&pkt.payload);
            let text = String::from_utf8_lossy(&pkt.payload);
            if let Some(id) = text
                .split("Call-ID: ")
                .nth(1)
                .and_then(|r| r.split("\r\n").next())
            {
                calls.push(id.to_string());
            }
        }
        let attacks = gen
            .expected()
            .attacks()
            .iter()
            .map(|a| a.first_frame)
            .collect();
        (h, calls, attacks)
    }

    #[test]
    fn same_seed_same_bytes() {
        for name in NAMES {
            assert_eq!(digest(name, 7, 30_000), digest(name, 7, 30_000), "{name}");
        }
    }

    #[test]
    fn seeds_move_call_ids_and_attack_positions() {
        for name in NAMES {
            let (ha, calls_a, attacks_a) = digest(name, 1, 60_000);
            let (hb, calls_b, attacks_b) = digest(name, 2, 60_000);
            assert_ne!(ha, hb, "{name}");
            assert!(
                !attacks_a.is_empty(),
                "{name}: no attack in the first frames"
            );
            assert!(!calls_a.is_empty(), "{name}: no SIP frame");
            let shared = calls_a.iter().filter(|c| calls_b.contains(c)).count();
            assert_eq!(shared, 0, "{name}: Call-IDs did not move with the seed");
            assert_ne!(
                attacks_a, attacks_b,
                "{name}: attack positions did not move"
            );
        }
    }

    #[test]
    fn cut_replays_the_same_units() {
        for name in NAMES {
            let mut a = Generator::new(by_name(name, 3).expect("known workload"));
            for _ in 0..5_000 {
                a.next_frame();
            }
            // A cut made mid-run replays the same units as one made up front.
            let cut = a.now() + 1;
            a.cut_at(cut);
            while a.next_frame().is_some() {}
            let mut b = Generator::new(by_name(name, 3).expect("known workload"));
            b.cut_at(cut);
            while b.next_frame().is_some() {}
            assert_eq!(a.frames(), b.frames(), "{name}");
            assert_eq!(
                a.expected().frames(),
                a.frames(),
                "{name}: truth frame counts"
            );
            assert_eq!(
                a.expected().attacks().len(),
                b.expected().attacks().len(),
                "{name}"
            );
        }
    }
}
