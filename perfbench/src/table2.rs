//! `table2`: the paper's Table 2, and scans generally.
//!
//! One lineitem-shaped fact table is stored twice, with 361 weekly range
//! partitions on `l_shipdate` and unpartitioned, holding the same rows.
//! Each round sends the same five statements to both copies: `SELECT *`,
//! a whole-table aggregate, a `GROUP BY`, and two date ranges that static
//! elimination prunes. Executor and storage do nearly all the work; the
//! results are the largest of any workload.

use crate::harness::{Answer, Expect, Parts, SetupClock, Stmt, Workload};
use crate::inproc;
use crate::trace::{Layers, Tracer};
use crate::util::{Digest, Rng, Val};
use mpp_session::Session;
use mppart::common::value::{civil_from_days, days_from_civil};
use mppart::common::{Datum, PartOid, Row, TableOid};
use mppart::expr::ColRefGenerator;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Rows in each copy.
pub const ROWS: usize = 200_000;
/// Weekly partitions: 361 × 7 days from 1992-01-01.
pub const PARTS: usize = 361;
const WEEK: i32 = 7;

/// Statement kinds per copy, in round order.
const KINDS: [[&str; 5]; 2] = [
    [
        "scan_part",
        "agg_part",
        "group_part",
        "range_agg_part",
        "range_rows_part",
    ],
    [
        "scan_flat",
        "agg_flat",
        "group_flat",
        "range_agg_flat",
        "range_rows_flat",
    ],
];

const COLUMNS: &str = "l_orderkey bigint NOT NULL, l_partkey int NOT NULL, \
     l_suppkey int NOT NULL, l_quantity double, l_extendedprice double, \
     l_discount double, l_shipdate date NOT NULL";

fn first_day() -> i32 {
    days_from_civil(1992, 1, 1)
}

fn date_lit(day: i32) -> String {
    let (y, m, d) = civil_from_days(day);
    format!("DATE '{y:04}-{m:02}-{d:02}'")
}

/// The generated rows and the model's answers over them.
pub struct Data {
    rows: Vec<Row>,
    /// Per day since [`first_day`]: row count, sum of `l_extendedprice`,
    /// digest of the rows.
    day_rows: Vec<u64>,
    day_price: Vec<f64>,
    day_digest: Vec<Digest>,
    /// Per `l_suppkey`: count and sum of `l_quantity`.
    supp: BTreeMap<i32, (u64, f64)>,
    sum_qty: f64,
    sum_price: f64,
    digest: Digest,
}

pub fn generate(seed: u64) -> Data {
    let mut rng = Rng::stream(seed, 0x7AB1E2);
    let days = PARTS * WEEK as usize;
    let mut d = Data {
        rows: Vec::with_capacity(ROWS),
        day_rows: vec![0; days],
        day_price: vec![0.0; days],
        day_digest: vec![Digest::default(); days],
        supp: BTreeMap::new(),
        sum_qty: 0.0,
        sum_price: 0.0,
        digest: Digest::default(),
    };
    for i in 0..ROWS {
        let qty = rng.range(1, 50) as f64;
        let price = rng.range(90_000, 200_000) as f64 / 100.0 * qty;
        let supp = rng.range(1, 100) as i32;
        let day = rng.range(0, days as i64 - 1) as usize;
        let row = Row::new(vec![
            Datum::Int64(i as i64 / 4 + 1),
            Datum::Int32(rng.range(1, 2000) as i32),
            Datum::Int32(supp),
            Datum::Float64(qty),
            Datum::Float64(price),
            Datum::Float64(rng.range(0, 10) as f64 / 100.0),
            Datum::Date(first_day() + day as i32),
        ]);
        d.day_rows[day] += 1;
        d.day_price[day] += price;
        d.day_digest[day].add(row.values());
        let s = d.supp.entry(supp).or_default();
        s.0 += 1;
        s.1 += qty;
        d.sum_qty += qty;
        d.sum_price += price;
        d.digest.add(row.values());
        d.rows.push(row);
    }
    d
}

pub struct Table2 {
    session: Session,
    gen: ColRefGenerator,
    part: TableOid,
    flat: TableOid,
    leaves: Vec<PartOid>,
    data: Arc<Data>,
}

/// Create both copies, load and analyze them.
pub fn setup(data: Arc<Data>) -> Result<(Table2, SetupClock), String> {
    let session = inproc::open_ctx().session();
    let mut clock = SetupClock::default();
    let end = first_day() + (PARTS as i32) * WEEK;
    let part_ddl = format!(
        "CREATE TABLE lineitem_part ({COLUMNS}) DISTRIBUTED BY (l_orderkey) \
         PARTITION BY RANGE (l_shipdate) (START ({}) END ({}) EVERY ({WEEK} DAYS))",
        date_lit(first_day()),
        date_lit(end)
    );
    let flat_ddl = format!("CREATE TABLE lineitem_flat ({COLUMNS}) DISTRIBUTED BY (l_orderkey)");
    let rows = data.rows.clone();
    let part = inproc::create_load_analyze(&session, &mut clock, &part_ddl, "lineitem_part", rows)?;
    let rows = data.rows.clone();
    let flat = inproc::create_load_analyze(&session, &mut clock, &flat_ddl, "lineitem_flat", rows)?;
    let leaves = inproc::leaves(session.ctx().db(), part)?;
    if leaves.len() != PARTS {
        return Err(format!(
            "{} partitions declared, {PARTS} expected",
            leaves.len()
        ));
    }
    let w = Table2 {
        session,
        gen: ColRefGenerator::new(),
        part,
        flat,
        leaves,
        data,
    };
    Ok((w, clock))
}

impl Table2 {
    pub fn setup_layers(&self, layers: &mut Layers) {
        layers.leaves.insert(self.part, self.leaves.len());
    }

    /// Partitions whose weeks overlap days `a..=b` (offsets from the first
    /// day).
    fn weeks(&self, a: i32, b: i32) -> BTreeSet<PartOid> {
        (a / WEEK..=b / WEEK)
            .map(|w| self.leaves[w as usize])
            .collect()
    }

    fn range_sum(&self, a: i32, b: i32) -> (u64, f64, Digest) {
        let mut digest = Digest::default();
        let (mut n, mut price) = (0, 0.0);
        for day in a as usize..=b as usize {
            n += self.data.day_rows[day];
            price += self.data.day_price[day];
            digest.merge(self.data.day_digest[day]);
        }
        (n, price, digest)
    }
}

impl Workload for Table2 {
    fn round(&mut self, rng: &mut Rng) -> Vec<Stmt> {
        let days = (PARTS as i32) * WEEK;
        let d = &self.data;
        // One statically prunable range of 1–13 weeks for the aggregate and
        // one of 1–5 weeks for the rows, drawn once and sent to both copies.
        let agg_w = rng.range(7, 91) as i32;
        let agg_a = rng.range(0, (days - agg_w) as i64) as i32;
        let rows_w = rng.range(7, 35) as i32;
        let rows_a = rng.range(0, (days - rows_w) as i64) as i32;
        let (agg_n, agg_price, _) = self.range_sum(agg_a, agg_a + agg_w - 1);
        let (_, _, rows_digest) = self.range_sum(rows_a, rows_a + rows_w - 1);
        let all: BTreeSet<PartOid> = self.leaves.iter().copied().collect();
        let groups: Vec<Vec<Val>> = d
            .supp
            .iter()
            .map(|(s, (n, q))| vec![Val::Num(*s as f64), Val::Num(*n as f64), Val::Num(*q)])
            .collect();
        let mut out = Vec::new();
        for (kinds, table, name) in [
            (KINDS[0], self.part, "lineitem_part"),
            (KINDS[1], self.flat, "lineitem_flat"),
        ] {
            let part = |set: BTreeSet<PartOid>| -> Vec<Parts> {
                if table == self.part {
                    vec![Parts::Exact(table, set)]
                } else {
                    vec![]
                }
            };
            let stmt = |kind: &'static str, sql: String, expect: Expect, parts: Vec<Parts>| Stmt {
                kind,
                sql,
                params: vec![],
                write: false,
                expect,
                parts,
            };
            out.push(stmt(
                kinds[0],
                format!("SELECT * FROM {name}"),
                Expect::Digest(d.digest),
                part(all.clone()),
            ));
            out.push(stmt(
                kinds[1],
                format!("SELECT count(*), sum(l_quantity), sum(l_extendedprice) FROM {name}"),
                Expect::Rows(vec![vec![
                    Val::Num(ROWS as f64),
                    Val::Num(d.sum_qty),
                    Val::Num(d.sum_price),
                ]]),
                part(all.clone()),
            ));
            out.push(stmt(
                kinds[2],
                format!(
                    "SELECT l_suppkey, count(*), sum(l_quantity) FROM {name} GROUP BY l_suppkey"
                ),
                Expect::Rows(groups.clone()),
                part(all.clone()),
            ));
            out.push(stmt(
                kinds[3],
                format!(
                    "SELECT count(*), sum(l_extendedprice) FROM {name} \
                     WHERE l_shipdate BETWEEN {} AND {}",
                    date_lit(first_day() + agg_a),
                    date_lit(first_day() + agg_a + agg_w - 1)
                ),
                Expect::Rows(vec![vec![Val::Num(agg_n as f64), Val::Num(agg_price)]]),
                part(self.weeks(agg_a, agg_a + agg_w - 1)),
            ));
            out.push(stmt(
                kinds[4],
                format!(
                    "SELECT * FROM {name} WHERE l_shipdate >= {} AND l_shipdate < {}",
                    date_lit(first_day() + rows_a),
                    date_lit(first_day() + rows_a + rows_w)
                ),
                Expect::Digest(rows_digest),
                part(self.weeks(rows_a, rows_a + rows_w - 1)),
            ));
        }
        out
    }

    fn exec(&mut self, s: &Stmt) -> Result<Answer, String> {
        inproc::exec(&self.session, s)
    }

    fn exec_traced(
        &mut self,
        s: &Stmt,
        tr: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Answer, String> {
        let a = inproc::exec_traced(&self.session, &self.gen, s, tr, layers)?;
        let exec_us = tr.last_duration("executor.exec").map(crate::util::us);
        match (s.kind, exec_us) {
            ("scan_part", Some(t)) => layers.scan_part_us.push(t),
            ("scan_flat", Some(t)) => layers.scan_flat_us.push(t),
            _ => {}
        }
        Ok(a)
    }

    fn stats_version(&self) -> u64 {
        self.session.ctx().db().planning_epoch().1
    }
}
