//! Output checks: a pipeline's alerts and counters against the
//! generator's ground truth.
//!
//! Alerts are compared as a set of `(rule, key)` pairs. The key is the
//! alert's session for session-scoped rules, and the source identity the
//! message names for the identity-plane and threshold rules, whose
//! alerts carry no session (or, for a single engine's `rapid-connect`,
//! the session of whichever call crossed the threshold).
//!
//! Two known defects of the sketch rate state are counted in `failed`
//! rather than refused, so every run reports how often they bite:
//!
//! * **Latch collisions.** `rapid-connect` and `password-guess` remember
//!   that a key fired in a [`LatchSet`](scidive_core::rate::LatchSet)
//!   bit that is never cleared. A fresh key whose bit an earlier key
//!   already set never fires, so of `K` one-shot keys about
//!   `K²/(2·bits)` are missed. A missed attack of these two rules is a
//!   failure; more misses than twice that (plus a small slack) is a
//!   wrong output.
//!   A missed guess also lacks its `PasswordGuessing` event.
//! * **Flood re-fires.** The REGISTER-flood latch is one bit of a shared
//!   set, and any source whose count sits under the release mark clears
//!   its bit; a churn source hashing onto a live flood's bit re-arms it,
//!   and the flood fires again. Each re-fire is one extra
//!   `RegisterFlood` event and one extra `register-dos` alert with the
//!   same key; each counts as an attempt and a failure.

use crate::gen::{Attack, Role, Truth, EPOCH_US};
use crate::workloads::role_of;
use scidive_core::alert::Alert;
use scidive_core::engine::PipelineStats;
use scidive_core::event::EventClass;
use std::collections::{BTreeSet, HashMap};

/// Rules whose per-key fired latch is a never-cleared [`LatchSet`] bit,
/// with the event each fired key produces, if the latch gates one.
///
/// [`LatchSet`]: scidive_core::rate::LatchSet
const LATCHED: [(&str, Option<EventClass>); 2] = [
    ("rapid-connect", None),
    ("password-guess", Some(EventClass::PasswordGuessing)),
];

/// The text between `open` and `close` in `s`.
fn between<'a>(s: &'a str, open: &str, close: &str) -> Option<&'a str> {
    let from = s.find(open)? + open.len();
    let len = s[from..].find(close)?;
    Some(&s[from..from + len])
}

/// The key an alert is matched on (see the module docs).
pub fn alert_key(a: &Alert) -> String {
    let m = a.message.as_str();
    let key = match a.rule.as_str() {
        "rapid-connect" => between(m, "caller ", " established").map(str::to_string),
        "register-dos" => m.rsplit_once(" from ").map(|(_, src)| src.to_string()),
        "password-guess" => m.rsplit_once(" for ").map(|(_, k)| k.to_string()),
        "fake-im" => between(m, "claims ", " but came from ")
            .zip(between(m, "came from ", " (expected"))
            .map(|(aor, src)| format!("{aor} from {src}")),
        _ => None,
    };
    key.or_else(|| a.session.as_ref().map(|s| s.as_str().to_string()))
        .unwrap_or_else(|| "-".to_string())
}

/// Everything the ground truth says one run must produce.
#[derive(Debug)]
pub struct Expected {
    pairs: BTreeSet<(String, String)>,
    attacks: Vec<Attack>,
    frames: u64,
    /// Events by `EventClass as usize`.
    events: Vec<u64>,
    benign_units: u64,
}

impl Default for Expected {
    fn default() -> Expected {
        Expected {
            pairs: BTreeSet::new(),
            attacks: Vec::new(),
            frames: 0,
            events: vec![0; EventClass::COUNT],
            benign_units: 0,
        }
    }
}

impl Expected {
    /// Folds in one unit's ground truth.
    pub fn add(&mut self, t: &Truth) {
        self.frames += t.frames;
        for &(class, n) in &t.events {
            self.events[class as usize] += n;
        }
        if t.role == Role::Benign {
            self.benign_units += 1;
        }
        if let Some(a) = &t.attack {
            self.pairs.insert((a.rule.to_string(), a.key.clone()));
            self.attacks.push(a.clone());
        }
    }

    pub fn frames(&self) -> u64 {
        self.frames
    }

    #[cfg(test)]
    pub fn attacks(&self) -> &[Attack] {
        &self.attacks
    }
}

/// The outcome of checking one pipeline's output.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Human-readable mismatches; empty when the output is correct.
    pub problems: Vec<String>,
    /// Failures counted but not refused (see the module docs).
    pub notes: Vec<String>,
    /// Frames submitted + attacks injected + benign units + flood
    /// re-fires.
    pub attempted: u64,
    /// Frames dropped + attacks missed + benign units alerted + flood
    /// re-fires.
    pub failed: u64,
    /// Capture-time delay (ms) from each detected attack's first frame to
    /// its first alert.
    pub delays_ms: Vec<f64>,
    /// The alert set, for cross-pipeline comparison.
    pub pairs: BTreeSet<(String, String)>,
}

const SHOW: usize = 12;

fn list<'a>(label: &str, items: impl Iterator<Item = &'a (String, String)>) -> Option<String> {
    let items: Vec<_> = items.collect();
    if items.is_empty() {
        return None;
    }
    let shown: Vec<String> = items
        .iter()
        .take(SHOW)
        .map(|(r, k)| format!("({r}, {k})"))
        .collect();
    Some(format!(
        "{label} {}: {}{}",
        items.len(),
        shown.join(", "),
        if items.len() > SHOW { ", ..." } else { "" }
    ))
}

/// Checks `alerts` and `stats` from the pipeline called `label` against
/// the expectation. `dropped` is the dispatcher's drop counter (zero for
/// a single engine); `by_class` the events the pipeline generated per
/// class, where it exposes them; `latch_bits` the size of the rate
/// state's latch sets.
#[allow(clippy::too_many_arguments)]
pub fn check(
    exp: &Expected,
    label: &str,
    alerts: &[Alert],
    stats: PipelineStats,
    submitted: u64,
    dropped: u64,
    by_class: Option<&[u64]>,
    latch_bits: u64,
) -> Verdict {
    let mut v = Verdict::default();
    let mut problems = Vec::new();
    let mut problem = |p: String| problems.push(format!("{label}: {p}"));
    let mut first_alert: HashMap<(String, String), Vec<u64>> = HashMap::new();
    let mut benign_alerted = BTreeSet::new();
    let mut observed = BTreeSet::new();
    for a in alerts {
        let role = a.session.as_ref().and_then(|s| role_of(s.as_str()));
        match role {
            Some(Role::Spray) => continue,
            Some(Role::Benign) => {
                benign_alerted.insert(a.session.as_ref().map(|s| s.as_str().to_string()));
            }
            _ => {}
        }
        let pair = (a.rule.clone(), alert_key(a));
        let at = a.time.as_micros().saturating_sub(EPOCH_US);
        first_alert.entry(pair.clone()).or_default().push(at);
        observed.insert(pair);
    }
    let (latched, missing): (Vec<_>, Vec<_>) = exp
        .pairs
        .difference(&observed)
        .partition(|(rule, _)| LATCHED.iter().any(|(r, _)| r == rule));
    if let Some(p) = list("missing alerts", missing.into_iter()) {
        problem(p);
    }
    if let Some(p) = list("unexpected alerts", observed.difference(&exp.pairs)) {
        problem(p);
    }
    let mut want_events = exp.events.clone();
    for (rule, class) in LATCHED {
        let k = exp.attacks.iter().filter(|a| a.rule == rule).count() as u64;
        let missed = latched.iter().filter(|(r, _)| r == rule).count() as u64;
        if let Some(class) = class {
            want_events[class as usize] -= missed;
        }
        // Twice the mean number of fresh keys landing on a set bit when
        // every earlier key set one, plus slack for small runs.
        let bound = k * k.saturating_sub(1) / latch_bits + 8;
        if missed > bound {
            problem(format!(
                "{rule}: {missed} of {k} attacks missed, more than latch collisions explain ({bound})"
            ));
        } else if missed > 0 {
            v.notes.push(format!(
                "{label}: {rule}: {missed} of {k} attacks missed on latch collisions (bound {bound})"
            ));
        }
    }
    let mut missed = 0;
    for a in &exp.attacks {
        let times = first_alert.get(&(a.rule.to_string(), a.key.clone()));
        match times.and_then(|ts| ts.iter().filter(|&&t| t >= a.first_frame).min()) {
            Some(&t) => v.delays_ms.push((t - a.first_frame) as f64 / 1e3),
            None => missed += 1,
        }
    }
    if missed > latched.len() as u64 {
        problem(format!(
            "{missed} of {} injected attacks missed",
            exp.attacks.len()
        ));
    }
    if exp.attacks.is_empty() {
        problem("no attack was injected, so detection delay is undefined".into());
    }
    if submitted != exp.frames || stats.frames != exp.frames {
        problem(format!(
            "frames: generated {}, submitted {submitted}, processed {}",
            exp.frames, stats.frames
        ));
    }
    if stats.footprints != stats.frames {
        problem(format!(
            "{} footprints from {} frames (expected one each)",
            stats.footprints, stats.frames
        ));
    }
    let floods = exp.events[EventClass::RegisterFlood as usize];
    let flood_alerts = alerts.iter().filter(|a| a.rule == "register-dos").count() as u64;
    let refired = flood_alerts.saturating_sub(floods);
    want_events[EventClass::RegisterFlood as usize] += refired;
    if refired > 0 {
        v.notes.push(format!(
            "{label}: {refired} REGISTER floods fired again on a shared latch bit"
        ));
    }
    let want: u64 = want_events.iter().sum();
    if stats.events != want {
        problem(format!("{} events, ground truth {want}", stats.events));
    }
    for (class, &got) in EventClass::ALL.iter().zip(by_class.unwrap_or_default()) {
        let want = want_events[*class as usize];
        if got != want {
            problem(format!(
                "{} events: {got}, ground truth {want}",
                class.name()
            ));
        }
    }
    if dropped != 0 {
        problem(format!("dispatcher dropped {dropped} frames"));
    }
    v.attempted = submitted + exp.attacks.len() as u64 + exp.benign_units + refired;
    v.failed = dropped + missed + benign_alerted.len() as u64 + refired;
    v.pairs = observed;
    v.problems = problems;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidive_core::alert::Severity;
    use scidive_netsim::time::SimTime;

    fn expected(truths: &[Truth]) -> Expected {
        let mut exp = Expected::default();
        truths.iter().for_each(|t| exp.add(t));
        exp
    }

    fn guess(k: u64) -> Truth {
        let attack = Attack {
            rule: "password-guess",
            key: format!("acct{k} from 10.0.0.{k}"),
            first_frame: k,
        };
        Truth::attack(&[(EventClass::PasswordGuessing, 1)], attack)
    }

    fn alert(rule: &str, k: u64, message: String) -> Alert {
        let at = SimTime::from_micros(EPOCH_US + k + 5);
        Alert::new(rule, Severity::Critical, at, None, message)
    }

    fn guess_alert(k: u64) -> Alert {
        let m = format!("4 distinct digest responses for acct{k} from 10.0.0.{k}");
        alert("password-guess", k, m)
    }

    fn stats(events: u64) -> PipelineStats {
        PipelineStats {
            events,
            ..PipelineStats::default()
        }
    }

    #[test]
    fn latch_misses_are_counted_failures_up_to_the_collision_bound() {
        let exp = expected(&(1..=20).map(guess).collect::<Vec<_>>());
        // Two guesses missed: no alert and no PasswordGuessing event.
        let alerts: Vec<Alert> = (3..=20).map(guess_alert).collect();
        let v = check(&exp, "t", &alerts, stats(18), 0, 0, None, 8192);
        assert!(v.problems.is_empty(), "{:?}", v.problems);
        assert_eq!((v.attempted, v.failed), (20, 2));
        assert_eq!(v.notes.len(), 1);
        // The missed guesses' events are not excused twice.
        let v = check(&exp, "t", &alerts, stats(20), 0, 0, None, 8192);
        assert_eq!(v.problems.len(), 1, "{:?}", v.problems);
        // More misses than collisions explain is a wrong output.
        let few: Vec<Alert> = (11..=20).map(guess_alert).collect();
        let v = check(&exp, "t", &few, stats(10), 0, 0, None, 8192);
        assert!(v
            .problems
            .iter()
            .any(|p| p.contains("more than latch collisions")));
    }

    #[test]
    fn a_refired_flood_is_an_attempt_and_a_failure() {
        let flood = Truth::attack(
            &[(EventClass::RegisterFlood, 1)],
            Attack {
                rule: "register-dos",
                key: "10.200.0.1".into(),
                first_frame: 0,
            },
        );
        let exp = expected(&[flood]);
        let m = || "12 request/4xx alternations from 10.200.0.1".to_string();
        let alerts = [alert("register-dos", 0, m()), alert("register-dos", 9, m())];
        let v = check(&exp, "t", &alerts, stats(2), 0, 0, None, 8192);
        assert!(v.problems.is_empty(), "{:?}", v.problems);
        assert_eq!((v.attempted, v.failed), (2, 1));
    }
}
