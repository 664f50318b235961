//! Spans recorded around calls into each layer, and the per-layer
//! counters of a traced run.
//!
//! Spans are kept in memory and written out when the run ends; nothing is
//! formatted or written while statements run.

use crate::util::{median, us};
use mppart::common::TableOid;
use mppart::executor::ExecutionStats;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Statement this span belongs to.
    pub stmt: u64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u64,
}

/// Root span of one client statement; its duration is the traced
/// statement time.
pub const STMT: &str = "stmt";

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            stmt: 0,
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.t0.elapsed();
        if self.open.is_empty() && name == STMT {
            self.stmt += 1;
        }
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            stmt: self.stmt,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.t0.elapsed();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Run `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    pub fn last_duration(&self, name: &str) -> Option<Duration> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.end - s.start)
    }

    /// Durations in µs of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.end - s.start))
            .collect()
    }

    /// Per span name: (spans, total self time), where self time is the
    /// span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, Duration)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start).saturating_sub(child[i]);
        }
        out
    }

    /// Total time of root statement spans.
    pub fn stmt_time(&self) -> (u64, Duration) {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == STMT)
            .fold((0, Duration::ZERO), |(n, t), s| {
                (n + 1, t + (s.end - s.start))
            })
    }

    /// Write every span as a tab-separated line: id, parent, statement,
    /// name, start µs, end µs.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tstmt\tname\tstart_us\tend_us")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{:.3}\t{:.3}",
                s.stmt,
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        w.flush()
    }
}

/// Per-layer counters gathered by a traced run, beside its spans.
#[derive(Default)]
pub struct Layers {
    /// Partitions defined per partitioned table.
    pub leaves: HashMap<TableOid, usize>,
    pub lookups: u64,
    pub hits: u64,
    /// ln(q-error) of every (statement, table) scan estimate.
    pub qerr_ln: Vec<f64>,
    pub plan_bytes: Vec<f64>,
    pub executions: u64,
    pub part_opens: u64,
    pub tuples_scanned: u64,
    pub rows_moved: u64,
    pub parts_frac: Vec<f64>,
    pub rows_vectorized: u64,
    pub rows_fallback: u64,
    /// Wire round trip minus in-process time of the same statement.
    pub wire_minus_inproc_us: Vec<f64>,
    pub frames: Vec<f64>,
    pub insert_row_us: Vec<f64>,
    /// Executor time of `SELECT *` on the partitioned and on the
    /// unpartitioned copy of one table.
    pub scan_part_us: Vec<f64>,
    pub scan_flat_us: Vec<f64>,
}

impl Layers {
    pub fn absorb(&mut self, st: &ExecutionStats) {
        self.executions += 1;
        self.part_opens += st.part_opens;
        self.tuples_scanned += st.tuples_scanned;
        self.rows_moved += st.rows_moved;
        self.rows_vectorized += st.rows_vectorized;
        self.rows_fallback += st.rows_row_fallback;
        for (t, parts) in &st.parts_scanned {
            if let Some(&n) = self.leaves.get(t) {
                self.parts_frac.push(parts.len() as f64 / n as f64);
            }
        }
    }

    /// Record how far each plan-time scan estimate was from the rows the
    /// executor actually read.
    pub fn qerror(&mut self, estimates: &[(TableOid, u64)], st: &ExecutionStats) {
        for (t, est) in estimates {
            if let Some(&act) = st.scan_rows.get(t) {
                let (e, a) = ((*est).max(1) as f64, act.max(1) as f64);
                self.qerr_ln.push((e.max(a) / e.min(a)).ln());
            }
        }
    }

    pub fn lookup(&mut self, hit: bool) {
        self.lookups += 1;
        self.hits += hit as u64;
    }

    pub fn per_exec(&self, total: u64) -> f64 {
        total as f64 / self.executions.max(1) as f64
    }
}

/// Median, or 0 when the workload never exercised the layer.
pub fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}
