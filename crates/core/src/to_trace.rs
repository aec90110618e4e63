//! `TO-machine` trace-membership checking for black-box traces.
//!
//! The forward-simulation check of [`crate::simulation`] certifies the
//! *abstract* composed system, where the global state is visible. For the
//! implementation stack of `gcs-vsimpl` only the external trace is
//! observable; this module decides membership of such a trace in the
//! trace set of `TO-machine` by replaying Figure 3's state along it:
//!
//! - `queue`, the common order of `(origin, value)` pairs;
//! - `next[q]`, each receiver's cursor into `queue`;
//! - per broadcast value, its origin, its submission index there and its
//!   position in `queue` once some receiver has delivered it.
//!
//! A `brcv(a)_{p,q}` either delivers `queue[next[q]]` or, when `q` is the
//! first to reach that position, appends to `queue`. That enforces:
//!
//! 1. **Integrity**: every delivered value was previously broadcast, and
//!    is attributed to its true origin;
//! 2. **No duplication**: no receiver gets the same value twice (a value
//!    already in `queue` before `next[q]`);
//! 3. **Common total order**: every receiver's deliveries are a prefix of
//!    `queue` (a mismatch at `next[q]` is reported once per receiver,
//!    whose order is not checked further);
//! 4. **Per-sender FIFO**: `queue` restricted to one sender's values
//!    respects that sender's submission order (checked on append).
//!
//! Together these are exactly the finite traces of Figure 3's automaton
//! (for unique broadcast values, which the checker verifies first). One
//! pass with ordered-map lookups costs O(E log V) for E events and V
//! values.

use crate::properties::ToObs;
use gcs_model::{ProcId, Value};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// The outcome of a `TO-machine` trace-membership check.
#[derive(Clone, Debug, Default)]
pub struct ToTraceReport {
    /// Number of `bcast` events seen.
    pub bcasts: usize,
    /// Number of `brcv` events checked.
    pub brcvs: usize,
    /// Violation descriptions (empty ⇔ the trace is a `TO-machine` trace).
    pub violations: Vec<String>,
}

impl ToTraceReport {
    /// Whether the trace passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ToTraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "to-trace check: {} bcast, {} brcv, {} violations",
            self.bcasts,
            self.brcvs,
            self.violations.len()
        )
    }
}

/// What the checker knows about one broadcast value.
struct Broadcast {
    /// The submitting location.
    origin: ProcId,
    /// The submission's index among `origin`'s broadcasts.
    index: usize,
    /// The value's position in the common order, once delivered.
    pos: Option<usize>,
}

/// Checks an (untimed) sequence of `TO` interface events for
/// `TO-machine` trace membership. Failure-status events are ignored.
pub fn check_to_trace(events: &[ToObs]) -> ToTraceReport {
    let mut report = ToTraceReport::default();
    let mut bcast: BTreeMap<Value, Broadcast> = BTreeMap::new();
    let mut submissions: BTreeMap<ProcId, usize> = BTreeMap::new();
    // Figure 3's `queue` and `next`; a cursor becomes `None` once its
    // receiver leaves the common order.
    let mut queue: Vec<(ProcId, Value)> = Vec::new();
    let mut next: BTreeMap<ProcId, Option<usize>> = BTreeMap::new();
    // Submission index of each sender's latest value in `queue`.
    let mut last_index: BTreeMap<ProcId, usize> = BTreeMap::new();

    for (idx, ev) in events.iter().enumerate() {
        match ev {
            ToObs::Bcast { p, a } => {
                report.bcasts += 1;
                let k = submissions.entry(*p).or_insert(0);
                match bcast.entry(a.clone()) {
                    Entry::Vacant(e) => {
                        e.insert(Broadcast { origin: *p, index: *k, pos: None });
                    }
                    Entry::Occupied(mut e) => {
                        report.violations.push(format!(
                            "event {idx}: value {a:?} broadcast twice; checker needs unique values"
                        ));
                        let b = e.get_mut();
                        b.origin = *p;
                        b.index = *k;
                    }
                }
                *k += 1;
            }
            ToObs::Brcv { src, dst, a } => {
                report.brcvs += 1;
                let Some(b) = bcast.get_mut(a) else {
                    report.violations.push(format!(
                        "event {idx}: {dst} delivered {a:?} never broadcast (integrity)"
                    ));
                    continue;
                };
                if b.origin != *src {
                    report.violations.push(format!(
                        "event {idx}: {dst} delivered {a:?} attributed to {src}, \
                         actually from {}",
                        b.origin
                    ));
                }
                let cursor = next.entry(*dst).or_insert(Some(0));
                let Some(c) = *cursor else { continue };
                if b.pos.is_some_and(|p| p < c) {
                    report
                        .violations
                        .push(format!("event {idx}: {dst} delivered {a:?} twice (no-duplication)"));
                } else if c == queue.len() {
                    if last_index.get(&b.origin).is_some_and(|&prev| b.index <= prev) {
                        report.violations.push(format!(
                            "event {idx}: order of {a:?} violates {}'s submission order (FIFO)",
                            b.origin
                        ));
                    }
                    last_index.insert(b.origin, b.index);
                    b.pos = Some(c);
                    queue.push((*src, a.clone()));
                    *cursor = Some(c + 1);
                } else if queue[c].0 == *src && queue[c].1 == *a {
                    *cursor = Some(c + 1);
                } else {
                    report.violations.push(format!(
                        "event {idx}: {dst} delivered {a:?} from {src} at position {c} of the \
                         common order, which holds {:?} from {}: deliveries not \
                         prefix-related (common total order)",
                        queue[c].1, queue[c].0
                    ));
                    *cursor = None;
                }
            }
            ToObs::Fail { .. } => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checker as it was before the Figure 3 replay: per-receiver
    /// delivery sequences, a rescan for duplicates on every delivery, a
    /// pairwise prefix pass and a FIFO pass over the longest sequence. The
    /// differential test holds the replay to its verdicts.
    fn reference_check(events: &[ToObs]) -> ToTraceReport {
        let mut report = ToTraceReport::default();
        // Broadcast log: value → (origin, submission index at that origin).
        let mut bcast: BTreeMap<Value, (ProcId, usize)> = BTreeMap::new();
        let mut submissions: BTreeMap<ProcId, usize> = BTreeMap::new();
        // Delivery sequences per receiver.
        let mut seqs: BTreeMap<ProcId, Vec<(ProcId, Value)>> = BTreeMap::new();

        for (idx, ev) in events.iter().enumerate() {
            match ev {
                ToObs::Bcast { p, a } => {
                    report.bcasts += 1;
                    let k = submissions.entry(*p).or_insert(0);
                    if bcast.insert(a.clone(), (*p, *k)).is_some() {
                        report.violations.push(format!(
                            "event {idx}: value {a:?} broadcast twice; checker needs unique values"
                        ));
                    }
                    *k += 1;
                }
                ToObs::Brcv { src, dst, a } => {
                    report.brcvs += 1;
                    match bcast.get(a) {
                        None => report.violations.push(format!(
                            "event {idx}: {dst} delivered {a:?} never broadcast (integrity)"
                        )),
                        Some((origin, _)) if origin != src => report.violations.push(format!(
                            "event {idx}: {dst} delivered {a:?} attributed to {src}, \
                             actually from {origin}"
                        )),
                        Some(_) => {}
                    }
                    let seq = seqs.entry(*dst).or_default();
                    if seq.iter().any(|(_, b)| b == a) {
                        report.violations.push(format!(
                            "event {idx}: {dst} delivered {a:?} twice (no-duplication)"
                        ));
                    }
                    seq.push((*src, a.clone()));
                }
                ToObs::Fail { .. } => {}
            }
        }

        // Common total order: all delivery sequences prefix-related.
        let receivers: Vec<&ProcId> = seqs.keys().collect();
        for (i, q1) in receivers.iter().enumerate() {
            for q2 in &receivers[i + 1..] {
                let s1 = &seqs[q1];
                let s2 = &seqs[q2];
                if !gcs_model::seq::is_prefix(s1, s2) && !gcs_model::seq::is_prefix(s2, s1) {
                    report.violations.push(format!(
                        "delivery sequences at {q1} and {q2} are not prefix-related \
                         (common total order)"
                    ));
                }
            }
        }

        // Per-sender FIFO in the longest sequence.
        if let Some(longest) = seqs.values().max_by_key(|s| s.len()) {
            let mut last_index: BTreeMap<ProcId, usize> = BTreeMap::new();
            for (src, a) in longest {
                if let Some((_, k)) = bcast.get(a) {
                    if let Some(prev) = last_index.get(src) {
                        if k <= prev {
                            report.violations.push(format!(
                                "order of {a:?} violates {src}'s submission order (FIFO)"
                            ));
                        }
                    }
                    last_index.insert(*src, *k);
                }
            }
        }
        report
    }

    fn bc(p: u32, x: u64) -> ToObs {
        ToObs::Bcast { p: ProcId(p), a: Value::from_u64(x) }
    }
    fn rv(src: u32, dst: u32, x: u64) -> ToObs {
        ToObs::Brcv { src: ProcId(src), dst: ProcId(dst), a: Value::from_u64(x) }
    }

    #[test]
    fn clean_trace_passes() {
        let r = check_to_trace(&[bc(0, 1), bc(1, 2), rv(0, 0, 1), rv(1, 0, 2), rv(0, 1, 1)]);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.brcvs, 3);
    }

    #[test]
    fn phantom_delivery_is_caught() {
        let r = check_to_trace(&[rv(0, 1, 9)]);
        assert!(!r.ok());
        assert!(r.violations[0].contains("integrity"));
    }

    #[test]
    fn wrong_attribution_is_caught() {
        let r = check_to_trace(&[bc(0, 1), rv(2, 1, 1)]);
        assert!(!r.ok());
        assert!(r.violations[0].contains("attributed"));
    }

    #[test]
    fn duplicate_delivery_is_caught() {
        let r = check_to_trace(&[bc(0, 1), rv(0, 1, 1), rv(0, 1, 1)]);
        assert!(!r.ok());
        assert!(r.violations.iter().any(|v| v.contains("no-duplication")));
    }

    #[test]
    fn divergent_orders_are_caught() {
        let r = check_to_trace(&[
            bc(0, 1),
            bc(1, 2),
            rv(0, 0, 1),
            rv(1, 0, 2),
            rv(1, 1, 2),
            rv(0, 1, 1),
        ]);
        assert!(!r.ok());
        assert!(r.violations.iter().any(|v| v.contains("prefix-related")));
    }

    #[test]
    fn sender_fifo_violation_is_caught() {
        let r = check_to_trace(&[bc(0, 1), bc(0, 2), rv(0, 1, 2), rv(0, 1, 1)]);
        assert!(!r.ok());
        assert!(r.violations.iter().any(|v| v.contains("FIFO")));
    }

    #[test]
    fn prefix_deliveries_are_fine() {
        // One receiver far ahead; another has only a prefix.
        let r = check_to_trace(&[bc(0, 1), bc(0, 2), rv(0, 0, 1), rv(0, 0, 2), rv(0, 1, 1)]);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn abstract_system_traces_pass() {
        use crate::adversary::SystemAdversary;
        use crate::system::{SysAction, VsToToSystem};
        use gcs_ioa::Runner;
        use gcs_model::Majority;
        use std::sync::Arc;
        for seed in 0..3 {
            let procs = ProcId::range(3);
            let sys = VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(3)));
            let mut runner = Runner::new(sys, SystemAdversary::default(), seed);
            let exec = runner.run(900).unwrap();
            let events: Vec<ToObs> = exec
                .actions()
                .iter()
                .filter_map(|a| match a {
                    SysAction::Bcast { p, a } => Some(ToObs::Bcast { p: *p, a: a.clone() }),
                    SysAction::Brcv { src, dst, a } => {
                        Some(ToObs::Brcv { src: *src, dst: *dst, a: a.clone() })
                    }
                    _ => None,
                })
                .collect();
            let r = check_to_trace(&events);
            assert!(r.ok(), "seed {seed}: {:?}", r.violations.first());
        }
    }

    #[test]
    fn duplicate_of_position_zero_far_later_is_caught() {
        let mut events: Vec<ToObs> = (0..1200).map(|x| bc(x as u32 % 3, x)).collect();
        for q in 0..2 {
            events.extend((0..1200).map(|x| rv(x as u32 % 3, q, x)));
        }
        events.push(rv(0, 1, 0));
        let r = check_to_trace(&events);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("no-duplication"));
        // The same duplicate while the receiver is still behind the order.
        events.insert(events.len() - 1 - 600, rv(0, 1, 0));
        events.pop();
        let r = check_to_trace(&events);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("no-duplication"));
    }

    #[test]
    fn a_diverging_receiver_is_reported_once() {
        let mut events: Vec<ToObs> = (0..6).map(|x| bc(x as u32 % 2, x)).collect();
        events.extend((0..6).map(|x| rv(x as u32 % 2, 0, x)));
        // Receiver 1 gets 1 before 0, then the rest in the common order.
        events.extend([1, 0, 2, 3, 4, 5].map(|x| rv(x as u32 % 2, 1, x)));
        let r = check_to_trace(&events);
        assert!(!r.ok());
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("prefix-related"));
        assert_eq!(r.brcvs, 12);
        assert!(!reference_check(&events).ok());
    }

    #[test]
    fn fail_events_between_deliveries_change_nothing() {
        use gcs_model::{Status, Subject};
        let fail = ToObs::Fail { subject: Subject::Loc(ProcId(1)), status: Status::Bad };
        let clean = [bc(0, 1), bc(1, 2), rv(0, 0, 1), rv(1, 0, 2), rv(0, 1, 1), rv(1, 1, 2)];
        let bad = [bc(0, 1), bc(1, 2), rv(0, 0, 1), rv(1, 0, 2), rv(1, 1, 2), rv(0, 1, 1)];
        for events in [&clean[..], &bad[..]] {
            let with_fails: Vec<ToObs> =
                events.iter().flat_map(|e| [fail.clone(), e.clone()]).collect();
            let (a, b) = (check_to_trace(events), check_to_trace(&with_fails));
            assert_eq!((a.ok(), a.bcasts, a.brcvs), (b.ok(), b.bcasts, b.brcvs));
            assert_eq!(a.violations.len(), b.violations.len());
        }
    }

    /// The TO events of a seeded run of the abstract composed system.
    fn abstract_trace(seed: u64) -> Vec<ToObs> {
        use crate::adversary::SystemAdversary;
        use crate::system::{SysAction, VsToToSystem};
        use gcs_ioa::Runner;
        use gcs_model::Majority;
        use std::sync::Arc;
        let procs = ProcId::range(3);
        let sys = VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(3)));
        let mut runner = Runner::new(sys, SystemAdversary::default(), seed);
        let exec = runner.run(900).unwrap();
        exec.actions()
            .iter()
            .filter_map(|a| match a {
                SysAction::Bcast { p, a } => Some(ToObs::Bcast { p: *p, a: a.clone() }),
                SysAction::Brcv { src, dst, a } => {
                    Some(ToObs::Brcv { src: *src, dst: *dst, a: a.clone() })
                }
                _ => None,
            })
            .collect()
    }

    /// Single-fault mutations of a clean trace, each with the violation
    /// keyword it must produce. A mutation whose site the trace lacks is
    /// left out.
    fn mutations(events: &[ToObs]) -> Vec<(&'static str, Vec<ToObs>)> {
        let brcvs: Vec<(usize, ProcId, ProcId, Value)> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                ToObs::Brcv { src, dst, a } => Some((i, *src, *dst, a.clone())),
                _ => None,
            })
            .collect();
        let first_delivery = |v: &Value| brcvs.iter().find(|d| d.3 == *v).map(|d| d.0);
        let mut out = Vec::new();

        // A receiver's first value delivered to it again at the very end.
        if let Some((_, src, dst, a)) = brcvs.first().cloned() {
            let mut m = events.to_vec();
            m.push(ToObs::Brcv { src, dst, a });
            out.push(("no-duplication", m));
        }
        // Two consecutive deliveries swapped at one receiver, at positions
        // another receiver also delivered.
        let at = |q: ProcId| brcvs.iter().filter(|d| d.2 == q).map(|d| d.0).collect::<Vec<_>>();
        let per_receiver: Vec<Vec<usize>> = ProcId::range(3).into_iter().map(at).collect();
        if let Some((i, j)) = per_receiver.iter().enumerate().find_map(|(q, seq)| {
            let others = per_receiver.iter().enumerate().filter(|(r, _)| *r != q);
            let reach = others.map(|(_, s)| s.len()).max().unwrap_or(0);
            (seq.len() >= 2 && reach >= 2).then(|| (seq[0], seq[1]))
        }) {
            let mut m = events.to_vec();
            m.swap(i, j);
            out.push(("prefix-related", m));
        }
        // A delivery attributed to the wrong origin.
        if let Some(&(i, src, dst, ref a)) = brcvs.first() {
            let mut m = events.to_vec();
            m[i] = ToObs::Brcv { src: ProcId((src.0 + 1) % 3), dst, a: a.clone() };
            out.push(("attributed", m));
        }
        // A value nobody broadcast, delivered mid-trace.
        if let Some(&(i, src, dst, _)) = brcvs.get(brcvs.len() / 2) {
            let mut m = events.to_vec();
            m.insert(i, ToObs::Brcv { src, dst, a: Value::from("phantom") });
            out.push(("integrity", m));
        }
        // A sender's two consecutive submissions swapped, where both are
        // delivered and neither before the later submission.
        let bcasts: Vec<(usize, ProcId)> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                ToObs::Bcast { p, .. } => Some((i, *p)),
                _ => None,
            })
            .collect();
        let value = |i: usize| match &events[i] {
            ToObs::Bcast { a, .. } => a.clone(),
            _ => unreachable!("a bcast index"),
        };
        let site = bcasts.iter().enumerate().find_map(|(n, &(i, p))| {
            let &(j, _) = bcasts[n + 1..].iter().find(|b| b.1 == p)?;
            let (x, y) = (first_delivery(&value(i))?, first_delivery(&value(j))?);
            (x > j && y > j).then_some((i, j))
        });
        if let Some((i, j)) = site {
            let mut m = events.to_vec();
            m.swap(i, j);
            out.push(("FIFO", m));
        }
        // A value broadcast a second time by its origin.
        if let Some(&(i, _)) = bcasts.first() {
            let mut m = events.to_vec();
            m.insert(i + 1, events[i].clone());
            out.push(("broadcast twice", m));
        }
        out
    }

    #[test]
    fn replay_agrees_with_the_reference_checker() {
        let mut classes = std::collections::BTreeSet::new();
        for seed in 0..6 {
            let events = abstract_trace(seed);
            let (new, old) = (check_to_trace(&events), reference_check(&events));
            assert!(new.ok() && old.ok(), "seed {seed}: {:?}", new.violations.first());
            assert_eq!((new.bcasts, new.brcvs), (old.bcasts, old.brcvs), "seed {seed}");
            for (class, m) in mutations(&events) {
                let (new, old) = (check_to_trace(&m), reference_check(&m));
                assert_eq!(
                    (new.ok(), new.bcasts, new.brcvs),
                    (old.ok(), old.bcasts, old.brcvs),
                    "seed {seed}, {class}: {:?} vs {:?}",
                    new.violations,
                    old.violations
                );
                assert!(!new.ok(), "seed {seed}: {class} mutation is not a fault");
                assert!(
                    new.violations.iter().any(|v| v.contains(class)),
                    "seed {seed}: {class} not named in {:?}",
                    new.violations
                );
                classes.insert(class);
            }
        }
        assert_eq!(classes.len(), 6, "every mutation class exercised: {classes:?}");
    }
}
