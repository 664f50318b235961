//! `dss`: the paper's §4.3 star schema and query mix.
//!
//! Seven fact tables range-partitioned on their date id and three
//! dimensions. A round sends the 26 query shapes of the paper workload
//! (static, join-driven, subquery, parameter and no-elimination) plus
//! three 4–5-way star joins, as ad-hoc text with literals drawn for each
//! statement. The distinct statements far outnumber the session's plan
//! cache, so nearly every statement is parsed, bound and optimized: this
//! is the workload where the SQL front end, the optimizer and run-time
//! partition selection show.

use crate::harness::{Answer, Expect, Parts, SetupClock, Stmt, Workload};
use crate::inproc;
use crate::trace::{Layers, Tracer};
use crate::util::{Rng, Val};
use mpp_session::Session;
use mppart::common::value::{civil_from_days, days_from_civil};
use mppart::common::{Datum, PartOid, Row, TableOid};
use mppart::expr::ColRefGenerator;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Days in `date_dim` (d_id 1..=DAYS from 2012-01-01).
pub const DAYS: i32 = 720;
/// Days per fact partition: 24 partitions per fact.
pub const PART_DAYS: i32 = 30;
pub const SALES_ROWS: usize = 20_000;
pub const CUSTOMERS: i32 = 500;
pub const ITEMS: i32 = 200;

const STATES: [&str; 10] = ["CA", "NY", "TX", "WA", "OR", "MA", "IL", "FL", "CO", "GA"];
const CATEGORIES: [&str; 6] = ["Books", "Music", "Sports", "Home", "Toys", "Garden"];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Sales,
    Returns,
    Inventory,
}

/// The seven facts: table name, column prefix, kind.
const FACTS: [(&str, &str, Kind); 7] = [
    ("store_sales", "ss", Kind::Sales),
    ("web_sales", "ws", Kind::Sales),
    ("catalog_sales", "cs", Kind::Sales),
    ("store_returns", "sr", Kind::Returns),
    ("web_returns", "wr", Kind::Returns),
    ("catalog_returns", "cr", Kind::Returns),
    ("inventory", "inv", Kind::Inventory),
];
const SS: usize = 0;
const WS: usize = 1;
const CS: usize = 2;
const SR: usize = 3;
const WR: usize = 4;
const CR: usize = 5;
const INV: usize = 6;

struct Date {
    year: i32,
    month: i32,
    dow: i32,
}

#[derive(Clone, Copy)]
struct Fact {
    date: i32,
    item: i32,
    cust: i32,
    qty: i32,
    amount: f64,
}

impl Fact {
    fn row(&self, kind: Kind) -> Row {
        let (d, i, c) = (
            Datum::Int32(self.date),
            Datum::Int32(self.item),
            Datum::Int32(self.cust),
        );
        Row::new(match kind {
            Kind::Sales => vec![d, i, c, Datum::Int32(self.qty), Datum::Float64(self.amount)],
            Kind::Returns => vec![d, i, c, Datum::Float64(self.amount)],
            Kind::Inventory => vec![d, i, Datum::Int32(self.qty)],
        })
    }
}

/// The generated rows: the benchmark's own copy, which answers every
/// statement.
pub struct Data {
    dates: Vec<Date>,
    /// State of customer `c_id` at index `c_id - 1`.
    cust_state: Vec<&'static str>,
    item_cat: Vec<&'static str>,
    item_price: Vec<f64>,
    facts: Vec<Vec<Fact>>,
}

fn epoch() -> i32 {
    days_from_civil(2012, 1, 1)
}

pub fn generate(seed: u64) -> Data {
    let mut rng = Rng::stream(seed, 0xD55);
    let dates = (0..DAYS)
        .map(|i| {
            let day = epoch() + i;
            let (y, m, _) = civil_from_days(day);
            Date {
                year: y,
                month: m as i32,
                dow: day.rem_euclid(7) + 1,
            }
        })
        .collect();
    let cust_state = (0..CUSTOMERS).map(|_| *rng.pick(&STATES)).collect();
    let item_cat = (0..ITEMS).map(|_| *rng.pick(&CATEGORIES)).collect();
    let item_price = (0..ITEMS)
        .map(|_| rng.range(100, 9_999) as f64 / 100.0)
        .collect();
    let facts = FACTS
        .iter()
        .map(|&(_, _, kind)| {
            let n = match kind {
                Kind::Sales => SALES_ROWS,
                Kind::Returns => SALES_ROWS / 5,
                Kind::Inventory => SALES_ROWS / 2,
            };
            (0..n)
                .map(|_| Fact {
                    date: rng.range(1, DAYS as i64) as i32,
                    item: rng.range(1, ITEMS as i64) as i32,
                    cust: if kind == Kind::Inventory {
                        0
                    } else {
                        rng.range(1, CUSTOMERS as i64) as i32
                    },
                    qty: match kind {
                        Kind::Inventory => rng.range(0, 500) as i32,
                        _ => rng.range(1, 20) as i32,
                    },
                    amount: match kind {
                        Kind::Returns => rng.range(100, 19_999) as f64 / 100.0,
                        _ => rng.range(100, 49_999) as f64 / 100.0,
                    },
                })
                .collect()
        })
        .collect();
    Data {
        dates,
        cust_state,
        item_cat,
        item_price,
        facts,
    }
}

pub struct Dss {
    session: Session,
    gen: ColRefGenerator,
    /// Per fact: OID and leaf partitions in ascending date order.
    facts: Vec<(TableOid, Vec<PartOid>)>,
    data: Arc<Data>,
}

fn fact_ddl(name: &str, p: &str, kind: Kind) -> String {
    let cols = match kind {
        Kind::Sales => format!(
            "{p}_date_id int NOT NULL, {p}_item_id int NOT NULL, {p}_cust_id int NOT NULL, \
             {p}_qty int NOT NULL, {p}_amount double NOT NULL"
        ),
        Kind::Returns => format!(
            "{p}_date_id int NOT NULL, {p}_item_id int NOT NULL, {p}_cust_id int NOT NULL, \
             {p}_amount double NOT NULL"
        ),
        Kind::Inventory => {
            format!("{p}_date_id int NOT NULL, {p}_item_id int NOT NULL, {p}_qty int NOT NULL")
        }
    };
    format!(
        "CREATE TABLE {name} ({cols}) DISTRIBUTED BY ({p}_date_id) \
         PARTITION BY RANGE ({p}_date_id) (START (1) END ({}) EVERY ({PART_DAYS}))",
        DAYS + 1
    )
}

/// Create, load and analyze the ten tables.
pub fn setup(data: Arc<Data>) -> Result<(Dss, SetupClock), String> {
    let session = inproc::open_ctx().session();
    let mut clock = SetupClock::default();
    let s = &session;
    let date_rows = data
        .dates
        .iter()
        .enumerate()
        .map(|(i, d)| {
            Row::new(vec![
                Datum::Int32(i as i32 + 1),
                Datum::Date(epoch() + i as i32),
                Datum::Int32(d.year),
                Datum::Int32(d.month),
                Datum::Int32(d.dow),
            ])
        })
        .collect();
    inproc::create_load_analyze(
        s,
        &mut clock,
        "CREATE TABLE date_dim (d_id int NOT NULL, d_date date NOT NULL, \
         d_year int NOT NULL, d_month int NOT NULL, d_day_of_week int NOT NULL) \
         DISTRIBUTED BY (d_id)",
        "date_dim",
        date_rows,
    )?;
    let cust_rows = (data.cust_state.iter().enumerate())
        .map(|(i, st)| {
            Row::new(vec![
                Datum::Int32(i as i32 + 1),
                Datum::str(*st),
                Datum::str("US"),
            ])
        })
        .collect();
    inproc::create_load_analyze(
        s,
        &mut clock,
        "CREATE TABLE customer_dim (c_id int NOT NULL, c_state text NOT NULL, \
         c_country text NOT NULL) DISTRIBUTED BY (c_id)",
        "customer_dim",
        cust_rows,
    )?;
    let item_rows = (data.item_cat.iter().zip(&data.item_price).enumerate())
        .map(|(i, (cat, price))| {
            Row::new(vec![
                Datum::Int32(i as i32 + 1),
                Datum::str(*cat),
                Datum::Float64(*price),
            ])
        })
        .collect();
    inproc::create_load_analyze(
        s,
        &mut clock,
        "CREATE TABLE item_dim (i_id int NOT NULL, i_category text NOT NULL, \
         i_price double NOT NULL) DISTRIBUTED BY (i_id)",
        "item_dim",
        item_rows,
    )?;
    let mut facts = Vec::new();
    for (k, &(name, p, kind)) in FACTS.iter().enumerate() {
        let rows = data.facts[k].iter().map(|f| f.row(kind)).collect();
        let oid = inproc::create_load_analyze(s, &mut clock, &fact_ddl(name, p, kind), name, rows)?;
        let leaves = inproc::leaves(s.ctx().db(), oid)?;
        if leaves.len() != (DAYS / PART_DAYS) as usize {
            return Err(format!("{name}: {} partitions declared", leaves.len()));
        }
        facts.push((oid, leaves));
    }
    let w = Dss {
        session,
        gen: ColRefGenerator::new(),
        facts,
        data,
    };
    Ok((w, clock))
}

/// Count and sums over qualifying fact rows.
#[derive(Default)]
struct Agg {
    n: u64,
    amount: f64,
    qty: i64,
}

impl Agg {
    fn add(&mut self, f: &Fact, times: u64) {
        self.n += times;
        self.amount += f.amount * times as f64;
        self.qty += f.qty as i64 * times as i64;
    }
    fn count(&self) -> Val {
        Val::Num(self.n as f64)
    }
    fn or_null(&self, v: f64) -> Val {
        if self.n == 0 {
            Val::Null
        } else {
            Val::Num(v)
        }
    }
    fn sum_amount(&self) -> Val {
        self.or_null(self.amount)
    }
    fn avg_amount(&self) -> Val {
        self.or_null(self.amount / self.n as f64)
    }
    fn sum_qty(&self) -> Val {
        self.or_null(self.qty as f64)
    }
}

fn one(vals: Vec<Val>) -> Expect {
    Expect::Rows(vec![vals])
}

fn quote(s: &str) -> String {
    format!("'{s}'")
}

impl Dss {
    fn date(&self, id: i32) -> &Date {
        &self.data.dates[id as usize - 1]
    }

    fn leaf(&self, fact: usize, date_id: i32) -> PartOid {
        self.facts[fact].1[((date_id - 1) / PART_DAYS) as usize]
    }

    /// Aggregate the rows of `fact` that satisfy `pred`, and the
    /// partitions holding them.
    fn scan(&self, fact: usize, pred: impl Fn(&Fact) -> bool) -> (Agg, BTreeSet<PartOid>) {
        let mut agg = Agg::default();
        let mut parts = BTreeSet::new();
        for f in self.data.facts[fact].iter().filter(|f| pred(f)) {
            agg.add(f, 1);
            parts.insert(self.leaf(fact, f.date));
        }
        (agg, parts)
    }

    /// Partitions of `fact` whose declared bounds overlap the set of date
    /// ids satisfying `pred` (integer keys, so checking each id is exact).
    fn overlap(&self, fact: usize, pred: impl Fn(i32) -> bool) -> Parts {
        let set = (1..=DAYS)
            .filter(|&d| pred(d))
            .map(|d| self.leaf(fact, d))
            .collect();
        Parts::Exact(self.facts[fact].0, set)
    }

    fn at_least(&self, fact: usize, parts: BTreeSet<PartOid>) -> Parts {
        Parts::AtLeast(self.facts[fact].0, parts)
    }

    /// A year and a span of up to `1 + max_span` months inside the
    /// generated dates. Drawing the span as well keeps the distinct
    /// statements of each shape well above the plan cache's capacity.
    fn year_months(rng: &mut Rng, max_span: i64) -> (i32, i32, i32) {
        let span = rng.range(0, max_span);
        let y = rng.range(2012, 2013) as i32;
        let m = rng.range(1, 12 - span) as i32;
        (y, m, m + span as i32)
    }

    fn in_months(&self, id: i32, y: i32, m1: i32, m2: i32) -> bool {
        let d = self.date(id);
        d.year == y && (m1..=m2).contains(&d.month)
    }
}

fn stmt(kind: &'static str, sql: String, expect: Expect, parts: Vec<Parts>) -> Stmt {
    Stmt {
        kind,
        sql,
        params: vec![],
        write: false,
        expect,
        parts,
    }
}

impl Workload for Dss {
    fn round(&mut self, rng: &mut Rng) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(29);
        let d = Arc::clone(&self.data);

        // ---- static elimination ----
        let (w, a) = (rng.range(30, 120) as i32, rng.range(1, 600) as i32);
        let (g, _) = self.scan(SS, |f| (a..=a + w).contains(&f.date));
        out.push(stmt(
            "q01_ss_static_range",
            format!(
                "SELECT count(*), sum(ss_amount) FROM store_sales \
                 WHERE ss_date_id BETWEEN {a} AND {}",
                a + w
            ),
            one(vec![g.count(), g.sum_amount()]),
            vec![self.overlap(SS, |x| (a..=a + w).contains(&x))],
        ));
        let a = rng.range(1, DAYS as i64 - 30) as i32;
        let (g, _) = self.scan(WS, |f| (a..=a + 30).contains(&f.date));
        out.push(stmt(
            "q02_ws_static_month",
            format!(
                "SELECT avg(ws_amount) FROM web_sales WHERE ws_date_id BETWEEN {a} AND {}",
                a + 30
            ),
            one(vec![g.avg_amount()]),
            vec![self.overlap(WS, |x| (a..=a + 30).contains(&x))],
        ));
        let a = rng.range(60, 700) as i32;
        let (g, _) = self.scan(CS, |f| f.date < a);
        out.push(stmt(
            "q03_cs_static_half",
            format!("SELECT count(*) FROM catalog_sales WHERE cs_date_id < {a}"),
            one(vec![g.count()]),
            vec![self.overlap(CS, |x| x < a)],
        ));
        let a = rng.range(1, DAYS as i64 - 100) as i32;
        let (g, _) = self.scan(INV, |f| (a..=a + 100).contains(&f.date));
        out.push(stmt(
            "q04_inv_static_range",
            format!(
                "SELECT sum(inv_qty) FROM inventory WHERE inv_date_id BETWEEN {a} AND {}",
                a + 100
            ),
            one(vec![g.sum_qty()]),
            vec![self.overlap(INV, |x| (a..=a + 100).contains(&x))],
        ));
        let ids: Vec<i32> = (0..4).map(|_| rng.range(1, DAYS as i64) as i32).collect();
        let (g, _) = self.scan(SR, |f| ids.contains(&f.date));
        out.push(stmt(
            "q05_sr_static_in",
            format!(
                "SELECT count(*) FROM store_returns WHERE sr_date_id IN ({}, {}, {}, {})",
                ids[0], ids[1], ids[2], ids[3]
            ),
            one(vec![g.count()]),
            vec![self.overlap(SR, |x| ids.contains(&x))],
        ));
        let (a, b) = (rng.range(20, 120) as i32, rng.range(600, 700) as i32);
        let (g, _) = self.scan(SS, |f| f.date < a || f.date >= b);
        out.push(stmt(
            "q06_ss_static_or",
            format!("SELECT count(*) FROM store_sales WHERE ss_date_id < {a} OR ss_date_id >= {b}"),
            one(vec![g.count()]),
            vec![self.overlap(SS, |x| x < a || x >= b)],
        ));

        // ---- join-driven elimination through date_dim ----
        let joins: [(&'static str, usize, &str, &str); 4] = [
            ("q07_ss_simple_join", SS, "count(*)", "store_sales"),
            ("q08_ws_simple_join", WS, "sum(ws_amount)", "web_sales"),
            ("q09_cr_simple_join", CR, "count(*)", "catalog_returns"),
            ("q10_inv_simple_join", INV, "sum(inv_qty)", "inventory"),
        ];
        let months = |m1: i32, m2: i32| {
            if m1 == m2 {
                format!("d_month = {m1}")
            } else {
                format!("d_month BETWEEN {m1} AND {m2}")
            }
        };
        for (kind, fact, agg, table) in joins {
            let p = FACTS[fact].1;
            let (y, m1, m2) = Dss::year_months(rng, 2);
            let (g, parts) = self.scan(fact, |f| self.in_months(f.date, y, m1, m2));
            let month = months(m1, m2);
            let val = match fact {
                WS => g.sum_amount(),
                INV => g.sum_qty(),
                _ => g.count(),
            };
            out.push(stmt(
                kind,
                format!(
                    "SELECT {agg} FROM date_dim, {table} \
                     WHERE d_id = {p}_date_id AND d_year = {y} AND {month}"
                ),
                one(vec![val]),
                vec![self.at_least(fact, parts)],
            ));
        }

        // ---- subqueries over date_dim ----
        let subs: [(&'static str, usize, &str, bool); 7] = [
            ("q11_ss_subquery", SS, "avg(ss_amount)", false),
            ("q12_ws_subquery", WS, "count(*)", false),
            ("q13_cs_subquery", CS, "sum(cs_amount)", true),
            ("q14_sr_subquery", SR, "count(*)", false),
            ("q15_wr_subquery", WR, "avg(wr_amount)", false),
            ("q16_cr_subquery", CR, "count(*)", false),
            ("q17_inv_subquery", INV, "sum(inv_qty)", false),
        ];
        for (kind, fact, agg, by_dow) in subs {
            let (name, p, _) = FACTS[fact];
            let (y, m1, m2) = Dss::year_months(rng, 2);
            let dow = by_dow.then(|| rng.range(1, 7) as i32);
            let pick = |id: i32| {
                self.in_months(id, y, m1, m2) && dow.is_none_or(|w| self.date(id).dow == w)
            };
            let (g, parts) = self.scan(fact, |f| pick(f.date));
            let mut cond = match dow {
                Some(w) => format!("d_day_of_week = {w} AND d_year = {y}"),
                None => format!("d_year = {y}"),
            };
            cond += &format!(" AND {}", months(m1, m2));
            let val = match agg {
                "count(*)" => g.count(),
                a if a.starts_with("avg") => g.avg_amount(),
                _ if fact == INV => g.sum_qty(),
                _ => g.sum_amount(),
            };
            out.push(stmt(
                kind,
                format!(
                    "SELECT {agg} FROM {name} WHERE {p}_date_id IN \
                     (SELECT d_id FROM date_dim WHERE {cond})"
                ),
                one(vec![val]),
                vec![self.at_least(fact, parts)],
            ));
        }

        // ---- three-way joins ----
        let (y, m1, m2) = Dss::year_months(rng, 2);
        let st = *rng.pick(&STATES);
        let (g, parts) = self.scan(SS, |f| {
            d.cust_state[f.cust as usize - 1] == st && self.in_months(f.date, y, m1, m2)
        });
        out.push(stmt(
            "q18_ss_three_way",
            format!(
                "SELECT count(*) FROM customer_dim, date_dim, store_sales \
                 WHERE c_id = ss_cust_id AND d_id = ss_date_id AND c_state = {} \
                 AND d_year = {y} AND d_month BETWEEN {m1} AND {m2}",
                quote(st)
            ),
            one(vec![g.count()]),
            vec![self.at_least(SS, parts)],
        ));
        let (y, m, _) = Dss::year_months(rng, 0);
        let cat = *rng.pick(&CATEGORIES);
        let (g, parts) = self.scan(WS, |f| {
            d.item_cat[f.item as usize - 1] == cat && self.in_months(f.date, y, m, m)
        });
        out.push(stmt(
            "q19_ws_three_way",
            format!(
                "SELECT sum(ws_amount) FROM item_dim, date_dim, web_sales \
                 WHERE i_id = ws_item_id AND d_id = ws_date_id AND i_category = {} \
                 AND d_year = {y} AND d_month = {m}",
                quote(cat)
            ),
            one(vec![g.sum_amount()]),
            vec![self.at_least(WS, parts)],
        ));

        // ---- parameters: elimination at run time ----
        let x = rng.range(1, DAYS as i64) as i32;
        let (g, parts) = self.scan(SS, |f| f.date == x);
        let mut s = stmt(
            "q20_ss_param_eq",
            "SELECT count(*) FROM store_sales WHERE ss_date_id = $1".into(),
            one(vec![g.count()]),
            vec![self.at_least(SS, parts)],
        );
        s.params = vec![Datum::Int32(x)];
        out.push(s);
        let (a, w) = (rng.range(1, 600) as i32, rng.range(10, 120) as i32);
        let (g, parts) = self.scan(CS, |f| (a..=a + w).contains(&f.date));
        let mut s = stmt(
            "q21_cs_param_range",
            "SELECT sum(cs_amount) FROM catalog_sales WHERE cs_date_id BETWEEN $1 AND $2".into(),
            one(vec![g.sum_amount()]),
            vec![self.at_least(CS, parts)],
        );
        s.params = vec![Datum::Int32(a), Datum::Int32(a + w)];
        out.push(s);

        // ---- no elimination possible ----
        let (g, _) = self.scan(SS, |_| true);
        out.push(stmt(
            "q22_ss_full",
            "SELECT sum(ss_amount), count(*) FROM store_sales".into(),
            one(vec![g.sum_amount(), g.count()]),
            vec![self.overlap(SS, |_| true)],
        ));
        let cat = *rng.pick(&CATEGORIES);
        let (g, parts) = self.scan(WS, |f| d.item_cat[f.item as usize - 1] == cat);
        out.push(stmt(
            "q23_ws_by_item",
            format!(
                "SELECT count(*) FROM item_dim, web_sales \
                 WHERE i_id = ws_item_id AND i_category = {}",
                quote(cat)
            ),
            one(vec![g.count()]),
            vec![self.at_least(WS, parts)],
        ));
        let limit = rng.range(10, 60) as usize;
        let mut groups: BTreeMap<i32, u64> = BTreeMap::new();
        for f in &d.facts[SR] {
            *groups.entry(f.item).or_default() += 1;
        }
        let groups: Vec<Vec<Val>> = groups
            .into_iter()
            .map(|(i, n)| vec![Val::Num(i as f64), Val::Num(n as f64)])
            .collect();
        out.push(stmt(
            "q24_sr_group",
            format!(
                "SELECT sr_item_id, count(*) FROM store_returns GROUP BY sr_item_id LIMIT {limit}"
            ),
            Expect::SubsetOf(limit.min(groups.len()), groups),
            vec![self.overlap(SR, |_| true)],
        ));
        let (g, _) = self.scan(WR, |_| true);
        out.push(stmt(
            "q25_wr_full",
            "SELECT avg(wr_amount) FROM web_returns".into(),
            one(vec![g.avg_amount()]),
            vec![self.overlap(WR, |_| true)],
        ));
        let k = rng.range(1, 19) as i32;
        let (g, _) = self.scan(CS, |f| f.qty > k);
        out.push(stmt(
            "q26_cs_nonkey_filter",
            format!("SELECT count(*) FROM catalog_sales WHERE cs_qty > {k}"),
            one(vec![g.count()]),
            vec![self.overlap(CS, |_| true)],
        ));

        // ---- star joins ----
        let (y, m1, m2) = Dss::year_months(rng, 3);
        let (st, cat) = (*rng.pick(&STATES), *rng.pick(&CATEGORIES));
        let (g, parts) = self.scan(SS, |f| {
            self.in_months(f.date, y, m1, m2)
                && d.cust_state[f.cust as usize - 1] == st
                && d.item_cat[f.item as usize - 1] == cat
        });
        out.push(stmt(
            "star4_ss",
            format!(
                "SELECT count(*), sum(ss_amount) FROM store_sales \
                 JOIN date_dim ON ss_date_id = d_id JOIN customer_dim ON ss_cust_id = c_id \
                 JOIN item_dim ON ss_item_id = i_id WHERE d_year = {y} \
                 AND d_month BETWEEN {m1} AND {m2} AND c_state = {} AND i_category = {}",
                quote(st),
                quote(cat)
            ),
            one(vec![g.count(), g.sum_amount()]),
            vec![self.at_least(SS, parts)],
        ));

        let (y, m, _) = Dss::year_months(rng, 0);
        let dow = rng.range(2, 7) as i32;
        let (s1, s2) = (*rng.pick(&STATES[..5]), *rng.pick(&STATES[5..]));
        let mut by_cat: BTreeMap<&str, Agg> = BTreeMap::new();
        let mut parts = BTreeSet::new();
        for f in &d.facts[CS] {
            let st = d.cust_state[f.cust as usize - 1];
            if self.in_months(f.date, y, m, m)
                && self.date(f.date).dow <= dow
                && (st == s1 || st == s2)
            {
                by_cat
                    .entry(d.item_cat[f.item as usize - 1])
                    .or_default()
                    .add(f, 1);
                parts.insert(self.leaf(CS, f.date));
            }
        }
        out.push(stmt(
            "star4_cs_by_category",
            format!(
                "SELECT i_category, count(*), sum(cs_amount) FROM catalog_sales \
                 JOIN date_dim ON cs_date_id = d_id JOIN customer_dim ON cs_cust_id = c_id \
                 JOIN item_dim ON cs_item_id = i_id WHERE d_year = {y} AND d_month = {m} \
                 AND d_day_of_week <= {dow} AND c_state IN ({}, {}) GROUP BY i_category",
                quote(s1),
                quote(s2)
            ),
            Expect::Rows(
                by_cat
                    .into_iter()
                    .map(|(c, g)| vec![Val::Str(c.into()), g.count(), g.sum_amount()])
                    .collect(),
            ),
            vec![self.at_least(CS, parts)],
        ));

        let (y, m1, m2) = Dss::year_months(rng, 2);
        let (st, cat) = (*rng.pick(&STATES), *rng.pick(&CATEGORIES));
        let mut returns: HashMap<(i32, i32), Vec<i32>> = HashMap::new();
        for r in &d.facts[WR] {
            returns.entry((r.item, r.cust)).or_default().push(r.date);
        }
        let mut g = Agg::default();
        let (mut ws_parts, mut wr_parts) = (BTreeSet::new(), BTreeSet::new());
        for f in &d.facts[WS] {
            if !(self.in_months(f.date, y, m1, m2)
                && d.cust_state[f.cust as usize - 1] != st
                && d.item_cat[f.item as usize - 1] != cat)
            {
                continue;
            }
            if let Some(dates) = returns.get(&(f.item, f.cust)) {
                g.add(f, dates.len() as u64);
                ws_parts.insert(self.leaf(WS, f.date));
                wr_parts.extend(dates.iter().map(|&x| self.leaf(WR, x)));
            }
        }
        out.push(stmt(
            "star5_ws_returns",
            format!(
                "SELECT count(*), sum(ws_amount) FROM web_sales \
                 JOIN date_dim ON ws_date_id = d_id JOIN customer_dim ON ws_cust_id = c_id \
                 JOIN item_dim ON ws_item_id = i_id \
                 JOIN web_returns ON wr_item_id = ws_item_id AND wr_cust_id = ws_cust_id \
                 WHERE d_year = {y} AND d_month BETWEEN {m1} AND {m2} \
                 AND c_state <> {} AND i_category <> {}",
                quote(st),
                quote(cat)
            ),
            one(vec![g.count(), g.sum_amount()]),
            vec![self.at_least(WS, ws_parts), self.at_least(WR, wr_parts)],
        ));
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
        inproc::exec_traced(&self.session, &self.gen, s, tr, layers)
    }

    fn stats_version(&self) -> u64 {
        self.session.ctx().db().planning_epoch().1
    }
}

impl Dss {
    pub fn setup_layers(&self, layers: &mut Layers) {
        for (oid, leaves) in &self.facts {
            layers.leaves.insert(*oid, leaves.len());
        }
    }
}
