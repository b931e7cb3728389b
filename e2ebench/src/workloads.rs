//! The three workloads. Each keeps a fixed shape per dialog, call or
//! campaign, so throughput measures the program and not a drifting mix;
//! the seed moves Call-IDs, tags, SSRCs, caller assignment and attack
//! positions.
//!
//! * `signalling` — benign INVITE → 200 → BYE dialogs, ~5k live at once,
//!   with REGISTER/401 churn, plus one REGISTER flood every 2 s so the
//!   detection-delay metrics exist on every workload.
//! * `media` — calls with SDP and 20 ms RTP both ways, ~100 live; one
//!   call in eight carries a forged BYE, a re-INVITE hijack, garbage on
//!   a media port or a sequence-jump injection.
//! * `attack-storm` — a small benign background under dense campaigns:
//!   SPIT fan-out over established calls, REGISTER floods, digest
//!   guessing, fake IMs and a unique-Call-ID INVITE spray. Every campaign
//!   comes from a caller, account or source of its own.

use crate::gen::{Attack, Rng, Role, RtpStream, Source, Truth, UnitStream, Workload};
use scidive_core::event::EventClass::{self, *};
use scidive_netsim::packet::IpPacket;
use scidive_sip::auth::DigestCredentials;
use scidive_sip::header::{CSeq, HeaderName, NameAddr, Via};
use scidive_sip::method::Method;
use scidive_sip::msg::{response_to, RequestBuilder, SipMessage};
use scidive_sip::sdp::SessionDescription;
use scidive_sip::status::StatusCode;
use scidive_sip::uri::SipUri;
use std::net::Ipv4Addr;

/// Trail, session-plane and rule-state retention of the deployed
/// configuration (µs). At least as long as every hold below, so no
/// dialog's state expires under it.
pub const RETENTION_US: u64 = 60_000_000;

const MS: u64 = 1_000;
const SEC: u64 = 1_000_000;
/// INVITE → 200 and REGISTER → 401 answer delay.
const ANSWER_US: u64 = 200;
/// Distinct benign callers; each always dials its own callee.
const CALLERS: u64 = 4096;
/// Distinct churn sources, cycled round-robin.
const CHURN_SOURCES: u64 = 1024;
/// The proxy every user agent talks through.
const PROXY: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// SIP port on both sides.
const SIP_PORT: u16 = 5060;

pub const NAMES: [&str; 3] = ["signalling", "media", "attack-storm"];

/// Call-ID prefixes by unit role. Every Call-ID a unit uses starts with
/// one, so an alert's session names its unit's role without the
/// benchmark keeping a map of every session it ever generated.
const ROLES: [(&str, Role); 12] = [
    ("sg-", Role::Benign),
    ("bg-", Role::Benign),
    ("md-", Role::Benign),
    ("reg-", Role::Benign),
    ("ma-", Role::Attack),
    ("fl-", Role::Attack),
    ("sp-", Role::Attack),
    ("gs-", Role::Attack),
    ("imr-", Role::Attack),
    ("im-", Role::Attack),
    ("ix-", Role::Attack),
    ("spr-", Role::Spray),
];

/// The role of the unit that owns Call-ID `session`.
pub fn role_of(session: &str) -> Option<Role> {
    ROLES
        .iter()
        .find(|(p, _)| session.starts_with(p))
        .map(|&(_, r)| r)
}

/// The workload called `name`, seeded.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let token = Rng::derive(seed, &[0x70c]).next_u64() as u32;
    let w: Box<dyn Workload> = match name {
        "signalling" => Box::new(Signalling { seed, token }),
        "media" => Box::new(Media { seed, token }),
        "attack-storm" => Box::new(Storm { seed, token }),
        _ => return None,
    };
    Some(w)
}

fn ip(a: u8, b: u64, c: u64) -> Ipv4Addr {
    Ipv4Addr::new(10, a | (b as u8), (c >> 8) as u8, c as u8)
}

fn caller_ip(c: u64) -> Ipv4Addr {
    ip(64, (c >> 16) & 31, c)
}

fn callee_ip(c: u64) -> Ipv4Addr {
    ip(96, (c >> 16) & 31, c)
}

/// A seeded offset in `[0, n)` for one of a workload's knobs.
fn offset(seed: u64, knob: u64, n: u64) -> u64 {
    Rng::derive(seed, &[knob]).range(0, n)
}

/// The header values every request of one dialog shares.
#[derive(Debug, Clone)]
struct Dialog {
    call_id: String,
    from: NameAddr,
    to: NameAddr,
}

impl Dialog {
    /// `from_user@lab` (tag `from_tag`) towards `to_user@lab`.
    fn new(call_id: String, from_user: &str, from_tag: &str, to_user: &str) -> Dialog {
        Dialog {
            call_id,
            from: NameAddr::new(SipUri::new(from_user, "lab")).with_tag(from_tag),
            to: NameAddr::new(SipUri::new(to_user, "lab")),
        }
    }

    /// A request of the dialog sent from `via`, Via branch `branch`. The
    /// Request-URI is the To URI, or the domain for REGISTER.
    fn request(&self, method: Method, cseq: u32, via: Ipv4Addr, branch: &str) -> RequestBuilder {
        let ruri = match method {
            Method::Register => SipUri::host_only("lab"),
            _ => self.to.uri.clone(),
        };
        let mut b = RequestBuilder::new(method, ruri);
        b.from(self.from.clone())
            .to(self.to.clone())
            .call_id(self.call_id.clone())
            .cseq(CSeq::new(cseq, method))
            .via(Via::udp(
                format!("{via}:{SIP_PORT}"),
                format!("z9hG4bK-{branch}"),
            ));
        b
    }

    /// The same dialog as the callee sends it.
    fn reversed(&self) -> Dialog {
        Dialog {
            call_id: self.call_id.clone(),
            from: self.to.clone(),
            to: self.from.clone(),
        }
    }
}

/// `msg` on the wire from `src` to `dst`.
fn wire(msg: &SipMessage, src: Ipv4Addr, dst: Ipv4Addr) -> IpPacket {
    IpPacket::udp(src, SIP_PORT, dst, SIP_PORT, msg.to_bytes())
}

/// A REGISTER of `d` and the proxy's 401, `ANSWER_US` apart.
fn register_denied(
    d: &Dialog,
    cseq: u32,
    src: Ipv4Addr,
    branch: &str,
    at: u64,
    configure: impl FnOnce(&mut RequestBuilder),
    out: &mut Vec<Source>,
) {
    let mut b = d.request(Method::Register, cseq, src, branch);
    configure(&mut b);
    let reg = b.build();
    out.push(Source::Packet(at, wire(&reg, src, PROXY)));
    let deny = response_to(&reg, StatusCode::UNAUTHORIZED, None);
    out.push(Source::Packet(at + ANSWER_US, wire(&deny, PROXY, src)));
}

/// A benign INVITE → 200 → BYE dialog of caller `c`, held `hold` µs.
fn dialog(
    call_id: String,
    c: u64,
    tag: u64,
    start: u64,
    hold: u64,
    out: &mut Vec<Source>,
) -> Truth {
    let caller = caller_ip(c);
    let mut d = Dialog::new(
        call_id,
        &format!("c{c}"),
        &format!("f{tag:x}"),
        &format!("d{c}"),
    );
    let invite = d
        .request(Method::Invite, 1, caller, &format!("{tag:x}"))
        .build();
    out.push(Source::Packet(start, wire(&invite, caller, PROXY)));
    let to_tag = format!("t{tag:x}");
    let ok = response_to(&invite, StatusCode::OK, Some(&to_tag));
    out.push(Source::Packet(start + ANSWER_US, wire(&ok, PROXY, caller)));
    d.to = d.to.with_tag(to_tag);
    let bye = d
        .request(Method::Bye, 2, caller, &format!("b{tag:x}"))
        .build();
    out.push(Source::Packet(start + hold, wire(&bye, caller, PROXY)));
    Truth::benign(&[(CallEstablished, 1), (CallTornDown, 1)])
}

/// Registration churn pair `j`: REGISTER → 401 from a rotating source.
fn churn(token: u32, j: u64, start: u64, out: &mut Vec<Source>) -> Truth {
    let s = j % CHURN_SOURCES;
    let src = ip(128, (s >> 16) & 31, s);
    let user = format!("r{s}");
    let d = Dialog::new(
        format!("reg-{token:08x}-{s}"),
        &user,
        &format!("rg{j}"),
        &user,
    );
    let cseq = (j / CHURN_SOURCES + 1) as u32;
    register_denied(
        &d,
        cseq,
        src,
        &format!("r{j}"),
        start,
        |b| {
            b.expires(3600);
        },
        out,
    );
    // Far below the flood threshold: no events.
    Truth::benign(&[])
}

/// REGISTER flood `k`: 12 REGISTER/401 alternations from a fresh source,
/// 80–160 ms apart. The identity plane's flood clause crosses at the
/// tenth alternation.
fn flood(seed: u64, token: u32, k: u64, start: u64, out: &mut Vec<Source>) -> Truth {
    let src = ip(200, (k >> 16) & 7, k);
    let user = format!("flooder{k}");
    let d = Dialog::new(
        format!("fl-{token:08x}-{k}"),
        &user,
        &format!("fl{k}"),
        &user,
    );
    let mut rng = Rng::derive(seed, &[0xf100d, k]);
    let mut t = start;
    for n in 0..12u32 {
        register_denied(&d, n + 1, src, &format!("fl{k}-{n}"), t, |_| {}, out);
        t += rng.range(80 * MS, 160 * MS);
    }
    let attack = Attack {
        rule: "register-dos",
        key: src.to_string(),
        first_frame: start,
    };
    // One RegisterFlood event: the latch holds for the rest of the flood.
    Truth::attack(&[(RegisterFlood, 1)], attack)
}

// ---------------------------------------------------------------------
// signalling
// ---------------------------------------------------------------------

/// Benign signalling: 100 dialogs/s held 50 s, so ~5k are established
/// at once and ~11k trails are live.
struct Signalling {
    seed: u64,
    token: u32,
}

const SIG_SPACING_US: u64 = 10 * MS;
const SIG_HOLD_US: u64 = 50 * SEC;
const FLOOD_PERIOD_US: u64 = 2 * SEC;
const SIG_PACE_US: u64 = 56 * SEC;

impl Workload for Signalling {
    fn streams(&self) -> Vec<UnitStream> {
        vec![
            UnitStream {
                period: SIG_SPACING_US,
                phase: 0,
            },
            UnitStream {
                period: 8 * SIG_SPACING_US,
                phase: SIG_SPACING_US / 3,
            },
            UnitStream {
                period: FLOOD_PERIOD_US,
                phase: offset(self.seed, 1, FLOOD_PERIOD_US),
            },
        ]
    }

    fn build(&self, stream: usize, k: u64, start: u64, out: &mut Vec<Source>) -> Truth {
        match stream {
            0 => {
                let c = (k + offset(self.seed, 2, CALLERS)) % CALLERS;
                let call_id = format!("sg-{:08x}-{k}", self.token);
                dialog(call_id, c, k, start, SIG_HOLD_US, out)
            }
            1 => churn(self.token, k, start, out),
            _ => flood(self.seed, self.token, k, start, out),
        }
    }

    fn warmup(&self) -> u64 {
        SIG_HOLD_US + RETENTION_US
    }

    fn pace(&self) -> u64 {
        SIG_PACE_US
    }
}

// ---------------------------------------------------------------------
// media
// ---------------------------------------------------------------------

/// Media calls: 10 calls/s held 10 s (~100 live), G.711 RTP every 20 ms
/// both ways; one call per block of eight is attacked.
struct Media {
    seed: u64,
    token: u32,
}

const MEDIA_SPACING_US: u64 = 100 * MS;
const MEDIA_HOLD_US: u64 = 10 * SEC;
const RTP_PERIOD_US: u64 = 20 * MS;
const RTP_PORT: u16 = 16384;
const MEDIA_PACE_US: u64 = 31 * SEC;

#[derive(Debug, Clone, Copy)]
enum MediaAttack {
    ForgedBye,
    Hijack,
    Garbage,
    SeqJump,
}

/// Fixed shares: 3/8 forged BYE, 3/8 hijack, 1/8 garbage, 1/8 seq jump.
const MEDIA_PATTERN: [MediaAttack; 8] = [
    MediaAttack::ForgedBye,
    MediaAttack::Hijack,
    MediaAttack::ForgedBye,
    MediaAttack::Hijack,
    MediaAttack::Garbage,
    MediaAttack::ForgedBye,
    MediaAttack::Hijack,
    MediaAttack::SeqJump,
];

impl Media {
    fn attack_of(&self, k: u64) -> Option<MediaAttack> {
        let block = k / 8;
        let slot = Rng::derive(self.seed, &[0xb10c, block]).range(0, 8);
        (k % 8 == slot).then(|| MEDIA_PATTERN[((block + offset(self.seed, 3, 8)) % 8) as usize])
    }
}

/// An SDP audio offer or answer of `user` for `(addr, RTP_PORT)`.
fn sdp(user: &str, addr: Ipv4Addr) -> String {
    SessionDescription::audio_offer(user, addr, RTP_PORT).to_string()
}

impl Workload for Media {
    fn streams(&self) -> Vec<UnitStream> {
        vec![UnitStream {
            period: MEDIA_SPACING_US,
            phase: 0,
        }]
    }

    fn build(&self, _stream: usize, k: u64, start: u64, out: &mut Vec<Source>) -> Truth {
        let c = (k + offset(self.seed, 2, CALLERS)) % CALLERS;
        let (caller, callee) = (caller_ip(c), callee_ip(c));
        let mut rng = Rng::derive(self.seed, &[0xca11, k]);
        let attack = self.attack_of(k);
        let prefix = if attack.is_some() { "ma" } else { "md" };
        let mut d = Dialog::new(
            format!("{prefix}-{:08x}-{k}", self.token),
            &format!("c{c}"),
            &format!("f{k:x}"),
            &format!("d{c}"),
        );
        let invite = d
            .request(Method::Invite, 1, caller, &format!("{k:x}"))
            .body("application/sdp", sdp(&format!("c{c}"), caller))
            .build();
        out.push(Source::Packet(start, wire(&invite, caller, PROXY)));
        let to_tag = format!("t{k:x}");
        let mut ok = response_to(&invite, StatusCode::OK, Some(&to_tag));
        ok.headers.set(HeaderName::ContentType, "application/sdp");
        ok.body = sdp(&format!("d{c}"), callee).into();
        out.push(Source::Packet(start + 50 * MS, wire(&ok, PROXY, caller)));
        d.to = d.to.with_tag(to_tag);
        let ack = d
            .request(Method::Ack, 1, caller, &format!("a{k:x}"))
            .build();
        out.push(Source::Packet(start + 60 * MS, wire(&ack, caller, PROXY)));
        let count = ((MEDIA_HOLD_US - 100 * MS) / RTP_PERIOD_US) as u32;
        let stream = |at: u64, src: Ipv4Addr, dst: Ipv4Addr, rng: &mut Rng| RtpStream {
            at,
            period: RTP_PERIOD_US,
            count,
            seq: rng.next_u64() as u16,
            ts: rng.next_u64() as u32,
            ssrc: rng.next_u64() as u32,
            src: (src, RTP_PORT),
            dst: (dst, RTP_PORT),
        };
        let up = stream(start + 70 * MS, caller, callee, &mut rng);
        let down = stream(start + 75 * MS, callee, caller, &mut rng);
        let bye = d
            .request(Method::Bye, 2, caller, &format!("b{k:x}"))
            .build();
        out.push(Source::Packet(
            start + MEDIA_HOLD_US,
            wire(&bye, caller, PROXY),
        ));
        let bye_ok = response_to(&bye, StatusCode::OK, None);
        out.push(Source::Packet(
            start + MEDIA_HOLD_US + 5 * MS,
            wire(&bye_ok, PROXY, caller),
        ));
        let mut events = vec![(CallEstablished, 1), (RtpFlowActive, 2), (CallTornDown, 1)];
        let Some(kind) = attack else {
            out.push(Source::Rtp(up));
            out.push(Source::Rtp(down));
            return Truth::benign(&events);
        };
        // The attacker reacts to a sniffed packet of the victim stream:
        // its frame lands 0.5–2 ms after packet `m`, mid-call.
        let m = rng.range(150, 350) as u32;
        let react = rng.range(500, 2000);
        let attacker = ip(250, 0, k & 0xffff);
        // Packets of `s` sent strictly before capture time `t`.
        let before = |s: &RtpStream, t: u64| t.saturating_sub(s.at).div_ceil(s.period) as u32;
        let (rule, at, extra): (_, _, &[(EventClass, u64)]) = match kind {
            MediaAttack::ForgedBye => {
                // A BYE claiming to be the caller; the callee hangs up,
                // the caller's media keeps flowing (orphan after BYE).
                let at = up.time_of(m) + react;
                let forged = d
                    .request(Method::Bye, 2, attacker, &format!("x{k:x}"))
                    .build();
                out.push(Source::Packet(at, wire(&forged, attacker, PROXY)));
                let n = before(&down, at);
                out.push(Source::Rtp(up));
                out.push(Source::Rtp(down.take(n)));
                ("bye-attack", at, &[(OrphanRtpAfterBye, 1)])
            }
            MediaAttack::Hijack => {
                // A re-INVITE claiming to be the callee moves the call's
                // media to the attacker; the callee keeps streaming to
                // the caller (orphan after redirect) while the caller
                // follows the redirect.
                let at = down.time_of(m) + react;
                let reinvite = d
                    .reversed()
                    .request(Method::Invite, 1, attacker, &format!("h{k:x}"))
                    .body("application/sdp", sdp(&format!("d{c}"), attacker))
                    .build();
                out.push(Source::Packet(at, wire(&reinvite, attacker, PROXY)));
                let n = before(&up, at);
                out.push(Source::Rtp(up.resume_from(n, (attacker, RTP_PORT))));
                out.push(Source::Rtp(up.take(n)));
                out.push(Source::Rtp(down));
                let extra = &[
                    (CallRedirected, 1),
                    (OrphanRtpAfterRedirect, 1),
                    (RtpFlowActive, 1),
                ];
                ("call-hijack", at, extra)
            }
            MediaAttack::Garbage => {
                // Three undecodable datagrams at the caller's media port;
                // one MediaPortGarbage event per ten.
                let at = up.time_of(m) + react;
                for i in 0..3 {
                    // Version bits 0: neither RTP nor RTCP, nor SIP text.
                    let junk = IpPacket::udp(attacker, 40000, caller, RTP_PORT, vec![0u8; 48]);
                    out.push(Source::Packet(at + i * RTP_PERIOD_US, junk));
                }
                out.push(Source::Rtp(up));
                out.push(Source::Rtp(down));
                ("rtp-attack", at, &[(MediaPortGarbage, 1)])
            }
            MediaAttack::SeqJump => {
                // One spoofed packet of the caller's stream, sequence
                // number 1000 ahead: a violation on the jump and another
                // when the genuine stream resumes.
                let at = up.time_of(m) + react;
                out.push(Source::Packet(at, up.packet(m, 1000)));
                out.push(Source::Rtp(up));
                out.push(Source::Rtp(down));
                ("rtp-attack", at, &[(RtpSeqViolation, 2)])
            }
        };
        let attack = Attack {
            rule,
            key: d.call_id.clone(),
            first_frame: at,
        };
        events.extend_from_slice(extra);
        Truth::attack(&events, attack)
    }

    fn warmup(&self) -> u64 {
        MEDIA_HOLD_US + RETENTION_US
    }

    fn pace(&self) -> u64 {
        MEDIA_PACE_US
    }
}

// ---------------------------------------------------------------------
// attack-storm
// ---------------------------------------------------------------------

/// A small benign background (10 dialogs/s held 20 s) under dense
/// campaigns and a 20/s unique-Call-ID INVITE spray.
struct Storm {
    seed: u64,
    token: u32,
}

const STORM_SPACING_US: u64 = 100 * MS;
const STORM_HOLD_US: u64 = 20 * SEC;
const SPRAY_PERIOD_US: u64 = 50 * MS;
const SPIT_PERIOD_US: u64 = 6 * SEC;
const STORM_FLOOD_PERIOD_US: u64 = 3 * SEC;
const GUESS_PERIOD_US: u64 = 5 * SEC;
const IM_PERIOD_US: u64 = 6 * SEC;
const STORM_PACE_US: u64 = 640 * SEC;
/// Calls per SPIT campaign, 400 ms apart, each to a distinct callee.
const SPIT_CALLS: u64 = 14;

impl Storm {
    /// SPIT campaign `k`: a fresh caller establishes `SPIT_CALLS` calls to
    /// distinct callees and hangs each up after 2 s.
    fn spit(&self, k: u64, start: u64, out: &mut Vec<Source>) -> Truth {
        // The fold plane evaluates rapid-connect on whole capture seconds
        // and the campaign period is a whole number of them, so a seeded
        // sub-second start spreads the campaigns over the fold phase
        // within every run instead of fixing one phase per seed.
        let start = start + Rng::derive(self.seed, &[0x5b17, k]).range(0, SEC);
        let src = ip(180, (k >> 16) & 7, k);
        let user = format!("spit{k}");
        for m in 0..SPIT_CALLS {
            let t = start + m * 400 * MS;
            let mut d = Dialog::new(
                format!("sp-{:08x}-{k}-{m}", self.token),
                &user,
                &format!("s{k}x{m}"),
                &format!("mark{k}x{m}"),
            );
            let invite = d
                .request(Method::Invite, 1, src, &format!("s{k}x{m}"))
                .build();
            out.push(Source::Packet(t, wire(&invite, src, PROXY)));
            let to_tag = format!("m{k}x{m}");
            let ok = response_to(&invite, StatusCode::OK, Some(&to_tag));
            out.push(Source::Packet(t + ANSWER_US, wire(&ok, PROXY, src)));
            d.to = d.to.with_tag(to_tag);
            let bye = d
                .request(Method::Bye, 2, src, &format!("sb{k}x{m}"))
                .build();
            out.push(Source::Packet(t + 2 * SEC, wire(&bye, src, PROXY)));
        }
        let attack = Attack {
            rule: "rapid-connect",
            key: format!("{user}@lab"),
            first_frame: start,
        };
        Truth::attack(
            &[(CallEstablished, SPIT_CALLS), (CallTornDown, SPIT_CALLS)],
            attack,
        )
    }

    /// Digest guessing campaign `k`: four REGISTERs with wrong digest
    /// responses for a fresh account from a fresh source.
    fn guess(&self, k: u64, start: u64, out: &mut Vec<Source>) -> Truth {
        let src = ip(210, (k >> 16) & 7, k);
        let user = format!("acct{k}");
        let d = Dialog::new(
            format!("gs-{:08x}-{k}", self.token),
            &user,
            &format!("g{k}"),
            &user,
        );
        let mut rng = Rng::derive(self.seed, &[0x9e55, k]);
        let mut t = start;
        for n in 0..4u32 {
            let creds = DigestCredentials {
                username: user.clone(),
                realm: "lab".into(),
                nonce: format!("{:016x}", rng.next_u64()),
                uri: "sip:lab".into(),
                response: format!("{:016x}{:016x}", rng.next_u64(), rng.next_u64()),
            };
            let auth = |b: &mut RequestBuilder| {
                b.header(HeaderName::Authorization, creds.to_string());
            };
            register_denied(&d, n + 1, src, &format!("g{k}-{n}"), t, auth, out);
            t += rng.range(200 * MS, 400 * MS);
        }
        let attack = Attack {
            rule: "password-guess",
            key: format!("{user} from {src}"),
            first_frame: start,
        };
        Truth::attack(&[(PasswordGuessing, 1)], attack)
    }

    /// Fake IM `k`: a user registers and sends an IM, then a forger sends
    /// one in the user's name from another address.
    fn fake_im(&self, k: u64, start: u64, out: &mut Vec<Source>) -> Truth {
        let victim = ip(220, 0, k & 0xffff);
        let forger = ip(230, 0, k & 0xffff);
        let user = format!("im{k}");
        let reg = Dialog::new(
            format!("imr-{:08x}-{k}", self.token),
            &user,
            &format!("ir{k}"),
            &user,
        );
        let register = reg
            .request(Method::Register, 1, victim, &format!("ir{k}"))
            .expires(3600)
            .build();
        out.push(Source::Packet(start, wire(&register, victim, PROXY)));
        let ok = response_to(&register, StatusCode::OK, None);
        out.push(Source::Packet(start + ANSWER_US, wire(&ok, PROXY, victim)));
        let mut rng = Rng::derive(self.seed, &[0x1a, k]);
        let forged_at = start + rng.range(500 * MS, 1500 * MS);
        for (tag, src, at) in [("im", victim, start + 300 * MS), ("ix", forger, forged_at)] {
            let d = Dialog::new(
                format!("{tag}-{:08x}-{k}", self.token),
                &user,
                &format!("{tag}{k}"),
                &format!("buddy{k}"),
            );
            let msg = d
                .request(Method::Message, 1, src, &format!("{tag}{k}"))
                .body("text/plain", "see you at noon")
                .build();
            out.push(Source::Packet(at, wire(&msg, src, PROXY)));
        }
        let attack = Attack {
            rule: "fake-im",
            key: format!("{user}@lab from {forger}"),
            first_frame: forged_at,
        };
        Truth::attack(&[(ImObserved, 2), (ImSourceMismatch, 1)], attack)
    }

    fn spray(&self, n: u64, start: u64, out: &mut Vec<Source>) -> Truth {
        let src = ip(240, 0, n & 0xffff);
        let d = Dialog::new(
            format!("spr-{:08x}-{n}", self.token),
            &format!("sprayer{}", n % 64),
            &format!("y{n}"),
            &format!("target{n}"),
        );
        let invite = d.request(Method::Invite, 1, src, &format!("y{n}")).build();
        out.push(Source::Packet(start, wire(&invite, src, PROXY)));
        Truth {
            role: Role::Spray,
            ..Truth::benign(&[])
        }
    }
}

impl Workload for Storm {
    fn streams(&self) -> Vec<UnitStream> {
        vec![
            UnitStream {
                period: STORM_SPACING_US,
                phase: 0,
            },
            UnitStream {
                period: 8 * STORM_SPACING_US,
                phase: STORM_SPACING_US / 3,
            },
            UnitStream {
                period: SPRAY_PERIOD_US,
                phase: 7 * MS,
            },
            UnitStream {
                period: SPIT_PERIOD_US,
                phase: offset(self.seed, 6, SPIT_PERIOD_US),
            },
            UnitStream {
                period: STORM_FLOOD_PERIOD_US,
                phase: offset(self.seed, 7, STORM_FLOOD_PERIOD_US),
            },
            UnitStream {
                period: GUESS_PERIOD_US,
                phase: offset(self.seed, 8, GUESS_PERIOD_US),
            },
            UnitStream {
                period: IM_PERIOD_US,
                phase: offset(self.seed, 9, IM_PERIOD_US),
            },
        ]
    }

    fn build(&self, stream: usize, k: u64, start: u64, out: &mut Vec<Source>) -> Truth {
        match stream {
            0 => {
                let c = (k + offset(self.seed, 2, CALLERS)) % CALLERS;
                let call_id = format!("bg-{:08x}-{k}", self.token);
                dialog(call_id, c, k, start, STORM_HOLD_US, out)
            }
            1 => churn(self.token, k, start, out),
            2 => self.spray(k, start, out),
            3 => self.spit(k, start, out),
            4 => flood(self.seed, self.token, k, start, out),
            5 => self.guess(k, start, out),
            _ => self.fake_im(k, start, out),
        }
    }

    fn warmup(&self) -> u64 {
        STORM_HOLD_US + RETENTION_US
    }

    fn pace(&self) -> u64 {
        STORM_PACE_US
    }
}
