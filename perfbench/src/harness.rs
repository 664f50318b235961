//! What every workload shares: statements with their expected answers,
//! the closed loop that sends them, the correctness checks and the end-to-end
//! figures.

use crate::trace::{Layers, Tracer};
use crate::util::{geomean, median, ms, same_multiset, tail, vals, Digest, Val};
use mppart::common::{PartOid, Row, TableOid};
use mppart::executor::ExecutionStats;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// The answer the benchmark's own model gives for a statement.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Result rows, as a multiset.
    Rows(Vec<Vec<Val>>),
    /// A large result, compared by row count and order-independent digest.
    Digest(Digest),
    /// `LIMIT n` without `ORDER BY`: `n` distinct rows, each one of these.
    SubsetOf(usize, Vec<Vec<Val>>),
}

/// A partition property of one partitioned table in a statement.
#[derive(Debug, Clone)]
pub enum Parts {
    /// A static predicate: exactly the partitions whose declared bounds
    /// overlap it are scanned.
    Exact(TableOid, BTreeSet<PartOid>),
    /// A join-driven or parameter predicate: at least every partition
    /// holding a qualifying row is scanned.
    AtLeast(TableOid, BTreeSet<PartOid>),
}

#[derive(Debug, Clone)]
pub struct Stmt {
    /// Statement class: latencies are summarized per kind.
    pub kind: &'static str,
    pub sql: String,
    pub params: Vec<mppart::common::Datum>,
    pub write: bool,
    pub expect: Expect,
    pub parts: Vec<Parts>,
}

/// What the program answered.
pub struct Answer {
    pub rows: Vec<Row>,
    pub stats: ExecutionStats,
}

pub trait Workload {
    /// One round of statements. Expected answers are computed against
    /// the model as it will be when each statement runs, so a round must
    /// be executed in order and in full.
    fn round(&mut self, rng: &mut crate::util::Rng) -> Vec<Stmt>;

    /// Run one statement the way a client does.
    fn exec(&mut self, s: &Stmt) -> Result<Answer, String>;

    /// Run one statement through each layer's entry point under spans,
    /// adding per-layer counters to `layers`.
    fn exec_traced(
        &mut self,
        s: &Stmt,
        tr: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Answer, String>;

    /// The catalog's statistics version (bumped by ANALYZE and by
    /// runtime feedback).
    fn stats_version(&self) -> u64;
}

/// Check an answer against the model; `Err` says what differs.
pub fn check(s: &Stmt, a: &Answer) -> Result<(), String> {
    let fail = |what: String| Err(format!("{}: {what} [{}]", s.kind, s.sql));
    match &s.expect {
        Expect::Rows(want) => {
            let got: Vec<Vec<Val>> = a.rows.iter().map(vals).collect();
            if !same_multiset(&got, want) {
                return fail(format!("rows {got:?}, expected {want:?}"));
            }
        }
        Expect::Digest(want) => {
            let mut got = Digest::default();
            for r in &a.rows {
                got.add(r.values());
            }
            if got != *want {
                return fail(format!(
                    "{} rows (digest {:x}), expected {} (digest {:x})",
                    got.rows, got.sum, want.rows, want.sum
                ));
            }
        }
        Expect::SubsetOf(n, groups) => {
            let got: Vec<Vec<Val>> = a.rows.iter().map(vals).collect();
            let mut seen = BTreeSet::new();
            let ok = got.len() == *n
                && got.iter().all(|g| {
                    groups
                        .iter()
                        .position(|w| crate::util::row_matches(g, w))
                        .is_some_and(|i| seen.insert(i))
                });
            if !ok {
                return fail(format!("rows {got:?} are not {n} of the expected groups"));
            }
        }
    }
    for p in &s.parts {
        let (table, want, exact) = match p {
            Parts::Exact(t, w) => (t, w, true),
            Parts::AtLeast(t, w) => (t, w, false),
        };
        let got: BTreeSet<PartOid> = a
            .stats
            .parts_scanned
            .get(table)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let ok = if exact {
            got == *want
        } else {
            got.is_superset(want)
        };
        if !ok {
            let rel = if exact { "exactly" } else { "at least" };
            return fail(format!(
                "scanned partitions {got:?} of table {table:?}, expected {rel} {want:?}"
            ));
        }
    }
    Ok(())
}

/// Outcome of one timed pass over the statement stream.
///
/// Latencies and rates are scaled to the reference host speed by the
/// host slowdown measured before the statement's round (see
/// [`crate::util::slowdown`]).
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    /// First few check failures and errors, for the log.
    pub problems: Vec<String>,
    pub wrong: u64,
    /// Time spent waiting on the program, unscaled; the benchmark's own
    /// checking between statements is not counted.
    pub busy: Duration,
    /// Per round: statements completed, scaled busy seconds, and the
    /// host speed factor (calibration time over its reference).
    pub rounds: Vec<(u64, f64, f64)>,
    /// Scaled latencies in ms per statement kind.
    pub read_ms: BTreeMap<&'static str, Vec<f64>>,
    pub write_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Pass {
    fn note(&mut self, p: String) {
        if self.problems.len() < 5 {
            self.problems.push(p);
        }
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Statements per scaled second of busy time, taken per round and
    /// reported as the median over rounds: a burst of contention slows a
    /// few rounds, not the figure.
    pub fn qps(&self) -> f64 {
        let rates: Vec<f64> = (self.rounds.iter())
            .map(|(n, secs, _)| *n as f64 / secs)
            .collect();
        median(&rates)
    }

    /// Median host speed factor over the pass (1 = reference speed,
    /// 2 = half as fast).
    pub fn slowdown(&self) -> f64 {
        median(&self.rounds.iter().map(|r| r.2).collect::<Vec<_>>())
    }

    /// Geometric mean over statement kinds of each kind's median latency.
    /// A plain median of a mixed stream jumps between statement classes
    /// whenever the mix shifts by a few statements; this does not.
    pub fn class_ms(by_kind: &BTreeMap<&'static str, Vec<f64>>) -> f64 {
        let medians: Vec<f64> = by_kind.values().map(|v| median(v)).collect();
        geomean(&medians)
    }

    /// Print the latency tail of all samples of one direction.
    pub fn print_tail(label: &str, by_kind: &BTreeMap<&'static str, Vec<f64>>) {
        let all: Vec<f64> = by_kind.values().flatten().copied().collect();
        match tail(&all) {
            Some((p, v)) => println!("{label} tail: p{p} = {v:.3} ms over {} samples", all.len()),
            None => println!(
                "{label} tail: too few samples ({}) for a tail; median {:.3} ms",
                all.len(),
                median(&all)
            ),
        }
    }
}

/// Drive the workload in a closed loop: one client, each statement sent
/// once the previous one completed. Whole rounds only, so every run
/// attempts the same statement mix. With a tracer, statements go through
/// the traced path.
pub fn drive(
    w: &mut dyn Workload,
    rng: &mut crate::util::Rng,
    seconds: f64,
    mut traced: Option<(&mut Tracer, &mut Layers)>,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    loop {
        // Calibrating between rounds, not between statements: interleaved
        // with statements it evicts their working set from the caches.
        let slowdown = crate::util::slowdown();
        let (done, mut busy) = (pass.completed(), Duration::ZERO);
        for s in w.round(rng) {
            pass.attempted += 1;
            let t0 = Instant::now();
            let res = match traced.as_mut() {
                None => w.exec(&s),
                Some((tr, layers)) => w.exec_traced(&s, tr, layers),
            };
            let dt = t0.elapsed();
            match res {
                Err(e) => {
                    pass.failed += 1;
                    pass.note(format!("{}: error {e} [{}]", s.kind, s.sql));
                }
                Ok(a) => {
                    busy += dt;
                    let by_kind = if s.write {
                        &mut pass.write_ms
                    } else {
                        &mut pass.read_ms
                    };
                    by_kind.entry(s.kind).or_default().push(ms(dt) / slowdown);
                    if let Err(p) = check(&s, &a) {
                        pass.wrong += 1;
                        pass.note(p);
                    }
                }
            }
        }
        pass.busy += busy;
        let n = pass.completed() - done;
        pass.rounds
            .push((n, busy.as_secs_f64() / slowdown, slowdown));
        if start.elapsed().as_secs_f64() >= seconds {
            return pass;
        }
    }
}

/// Times the program's set-up calls only: the benchmark's own row
/// generation and copying happen outside [`SetupClock::time`].
#[derive(Default)]
pub struct SetupClock {
    pub total: Duration,
    /// (call kind, rows handled, duration) of every timed call.
    pub calls: Vec<(&'static str, u64, Duration)>,
}

impl SetupClock {
    pub fn time<T>(&mut self, what: &'static str, n: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        self.total += dt;
        self.calls.push((what, n, dt));
        r
    }
}
