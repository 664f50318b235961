//! `oltp`: one client talking to an in-process `mpp-server` over the
//! wire protocol on loopback.
//!
//! Reads are prepared point and range reads on the partition key, so
//! partitions are eliminated at run time from the parameters. Three
//! statements in a hundred are writes on the same table (a literal
//! `INSERT`, a prepared `UPDATE` and a prepared `DELETE` by key), paired
//! so the table size stays level. The plan cache holds the whole working
//! set: the server, session, catalog and write path do the work.

use crate::harness::{Answer, Expect, Parts, SetupClock, Stmt, Workload};
use crate::inproc;
use crate::trace::{Layers, Tracer, STMT};
use crate::util::{us, Rng, Val};
use mpp_server::{Client, Server, ServerConfig};
use mpp_session::Session;
use mppart::common::{Datum, PartOid, Row, TableOid};
use mppart::{CancelToken, ResultChunk};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Key space `0..KEYS`, one row per key.
pub const KEYS: i32 = 50_000;
/// Keys per range partition: 50 partitions.
pub const PART_KEYS: i32 = 1_000;
/// Keys left out of the load, so every round can insert one.
pub const HOLES: usize = 64;
/// Statements per round; three of them are writes.
pub const ROUND: usize = 100;

const DDL: &str = "CREATE TABLE orders (o_id bigint NOT NULL, o_key int NOT NULL, \
     o_cust int NOT NULL, o_amount bigint NOT NULL) DISTRIBUTED BY (o_id) \
     PARTITION BY RANGE (o_key) (START (0) END (50000) EVERY (1000))";

/// Prepared on the server at set-up: (name, text).
const PREPARED: [(&str, &str); 5] = [
    (
        "point",
        "SELECT o_id, o_cust, o_amount FROM orders WHERE o_key = $1",
    ),
    (
        "range_agg",
        "SELECT count(*), sum(o_amount) FROM orders WHERE o_key BETWEEN $1 AND $2",
    ),
    (
        "range_rows",
        "SELECT o_key, o_amount FROM orders WHERE o_key >= $1 AND o_key < $2",
    ),
    ("update", "UPDATE orders SET o_amount = $1 WHERE o_key = $2"),
    ("delete", "DELETE FROM orders WHERE o_key = $1"),
];

#[derive(Clone, Copy)]
struct Order {
    id: i64,
    cust: i32,
    amount: i64,
}

/// The table as the benchmark's model holds it.
#[derive(Clone)]
pub struct Data {
    rows: BTreeMap<i32, Order>,
    absent: VecDeque<i32>,
    next_id: i64,
}

pub fn generate(seed: u64) -> Data {
    let mut rng = Rng::stream(seed, 0x0171);
    let mut holes = BTreeSet::new();
    while holes.len() < HOLES {
        holes.insert(rng.range(0, KEYS as i64 - 1) as i32);
    }
    let rows = (0..KEYS)
        .filter(|k| !holes.contains(k))
        .map(|k| {
            let o = Order {
                id: k as i64,
                cust: rng.range(1, 5_000) as i32,
                amount: rng.range(100, 100_000),
            };
            (k, o)
        })
        .collect();
    Data {
        rows,
        absent: holes.into_iter().collect(),
        next_id: KEYS as i64,
    }
}

fn row_of(key: i32, o: &Order) -> Row {
    Row::new(vec![
        Datum::Int64(o.id),
        Datum::Int32(key),
        Datum::Int32(o.cust),
        Datum::Int64(o.amount),
    ])
}

pub struct Oltp {
    server: Server,
    client: Client,
    /// In-process session over the same database, for the traced run's
    /// comparison of wire and in-process time.
    session: Session,
    table: TableOid,
    leaves: Vec<PartOid>,
    model: Data,
    /// Same schema as `orders`, for timing one-row `Storage::insert`
    /// without touching the measured table.
    probe: Option<TableOid>,
}

/// Create, load and analyze the table in process, start the server and
/// prepare the statements over the wire.
pub fn setup(data: Arc<Data>) -> Result<(Oltp, SetupClock), String> {
    let ctx = inproc::open_ctx();
    let session = ctx.session();
    let mut clock = SetupClock::default();
    let rows = data.rows.iter().map(|(k, o)| row_of(*k, o)).collect();
    let table = inproc::create_load_analyze(&session, &mut clock, DDL, "orders", rows)?;
    let leaves = inproc::leaves(ctx.db(), table)?;
    if leaves.len() != (KEYS / PART_KEYS) as usize {
        return Err(format!("{} partitions declared", leaves.len()));
    }
    let server = clock
        .time("server", 0, || {
            Server::start(Arc::clone(&ctx), "127.0.0.1:0", ServerConfig::default())
        })
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    for (name, sql) in PREPARED {
        clock
            .time("prepare", 0, || client.prepare(name, sql))
            .map_err(|e| format!("prepare {name}: {e}"))?;
    }
    let w = Oltp {
        server,
        client,
        session,
        table,
        leaves,
        model: (*data).clone(),
        probe: None,
    };
    Ok((w, clock))
}

impl Drop for Oltp {
    fn drop(&mut self) {
        // Joins every server thread, so the process ends with none running.
        self.server.stop();
    }
}

fn affected(n: i64) -> Expect {
    Expect::Rows(vec![vec![Val::Num(n as f64)]])
}

impl Oltp {
    pub fn setup_layers(&self, layers: &mut Layers) {
        layers.leaves.insert(self.table, self.leaves.len());
    }

    fn leaf(&self, key: i32) -> PartOid {
        self.leaves[(key / PART_KEYS) as usize]
    }

    /// A key present in the model, drawn uniformly from the key space.
    fn present_key(&self, rng: &mut Rng) -> i32 {
        let k = rng.range(0, KEYS as i64 - 1) as i32;
        let next = self.model.rows.range(k..).next();
        *next
            .or_else(|| self.model.rows.iter().next())
            .expect("table is never empty")
            .0
    }

    fn read(
        &self,
        kind: &'static str,
        params: Vec<Datum>,
        rows: Vec<Vec<Val>>,
        keys: BTreeSet<i32>,
    ) -> Stmt {
        let parts = keys.iter().map(|&k| self.leaf(k)).collect();
        Stmt {
            kind,
            sql: PREPARED
                .iter()
                .find(|p| p.0 == kind)
                .expect("prepared")
                .1
                .into(),
            params,
            write: false,
            expect: Expect::Rows(rows),
            parts: vec![Parts::AtLeast(self.table, parts)],
        }
    }

    fn send(&mut self, s: &Stmt) -> Result<mpp_server::Reply, String> {
        let r = if s.kind == "insert" {
            self.client.query(&s.sql, &[])
        } else {
            self.client.execute(s.kind, &s.params)
        };
        r.map_err(|e| e.to_string())
    }
}

impl Workload for Oltp {
    fn round(&mut self, rng: &mut Rng) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(ROUND);
        for i in 0..ROUND {
            let s = match i {
                32 => {
                    let k = self.present_key(rng);
                    self.model.rows.remove(&k);
                    self.model.absent.push_back(k);
                    Stmt {
                        kind: "delete",
                        sql: PREPARED[4].1.into(),
                        params: vec![Datum::Int32(k)],
                        write: true,
                        expect: affected(1),
                        parts: vec![],
                    }
                }
                65 => {
                    let k = self.present_key(rng);
                    let amount = rng.range(100, 100_000);
                    self.model.rows.get_mut(&k).expect("present").amount = amount;
                    Stmt {
                        kind: "update",
                        sql: PREPARED[3].1.into(),
                        params: vec![Datum::Int64(amount), Datum::Int32(k)],
                        write: true,
                        expect: affected(1),
                        parts: vec![],
                    }
                }
                98 => {
                    let k = self.model.absent.pop_front().expect("a deleted key");
                    let o = Order {
                        id: self.model.next_id,
                        cust: rng.range(1, 5_000) as i32,
                        amount: rng.range(100, 100_000),
                    };
                    self.model.next_id += 1;
                    self.model.rows.insert(k, o);
                    Stmt {
                        kind: "insert",
                        sql: format!(
                            "INSERT INTO orders VALUES ({}, {k}, {}, {})",
                            o.id, o.cust, o.amount
                        ),
                        // The binder rejects `INSERT … VALUES ($1, …)`, so the
                        // row goes as literal text; `params` keeps it for the
                        // traced run's probe insert.
                        params: row_of(k, &o).values().to_vec(),
                        write: true,
                        expect: affected(1),
                        parts: vec![],
                    }
                }
                // Five point reads for every two range aggregates and one
                // range of rows.
                _ => match i % 8 {
                    0..=4 => {
                        let k = rng.range(0, KEYS as i64 - 1) as i32;
                        let hit = self.model.rows.get(&k);
                        let rows = hit
                            .map(|o| {
                                vec![
                                    Val::Num(o.id as f64),
                                    Val::Num(o.cust as f64),
                                    Val::Num(o.amount as f64),
                                ]
                            })
                            .into_iter()
                            .collect();
                        let keys = hit.map(|_| k).into_iter().collect();
                        self.read("point", vec![Datum::Int32(k)], rows, keys)
                    }
                    5 | 6 => {
                        let a = rng.range(0, KEYS as i64 - 1) as i32;
                        let b = (a + rng.range(0, 2_000) as i32).min(KEYS - 1);
                        let hits: Vec<(&i32, &Order)> = self.model.rows.range(a..=b).collect();
                        let sum: i64 = hits.iter().map(|(_, o)| o.amount).sum();
                        let sum = if hits.is_empty() {
                            Val::Null
                        } else {
                            Val::Num(sum as f64)
                        };
                        let keys = hits.iter().map(|(k, _)| **k).collect();
                        let rows = vec![vec![Val::Num(hits.len() as f64), sum]];
                        self.read(
                            "range_agg",
                            vec![Datum::Int32(a), Datum::Int32(b)],
                            rows,
                            keys,
                        )
                    }
                    _ => {
                        let a = rng.range(0, KEYS as i64 - 1) as i32;
                        let b = a + rng.range(1, 40) as i32;
                        let hits: Vec<(&i32, &Order)> = self.model.rows.range(a..b).collect();
                        let rows = hits
                            .iter()
                            .map(|(k, o)| vec![Val::Num(**k as f64), Val::Num(o.amount as f64)])
                            .collect();
                        let keys = hits.iter().map(|(k, _)| **k).collect();
                        self.read(
                            "range_rows",
                            vec![Datum::Int32(a), Datum::Int32(b)],
                            rows,
                            keys,
                        )
                    }
                },
            };
            out.push(s);
        }
        out
    }

    fn exec(&mut self, s: &Stmt) -> Result<Answer, String> {
        let r = self.send(s)?;
        Ok(Answer {
            rows: r.rows,
            stats: r.stats,
        })
    }

    /// The statement over the wire under a statement span; then, for a
    /// read, the same prepared statement in process (session lookup and
    /// executor), and for an insert, one row through `Storage::insert`
    /// into a probe table.
    fn exec_traced(
        &mut self,
        s: &Stmt,
        tr: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Answer, String> {
        let stmt = tr.begin(STMT);
        let reply = tr.span("server.wire", || self.send(s));
        tr.end(stmt);
        let reply = reply?;
        let wire = tr.last_duration(STMT).expect("statement span");
        layers.frames.push(reply.data_blocks as f64);
        layers.lookup(reply.cache.is_some_and(|c| c.hit));
        layers.absorb(&reply.stats);
        let db = self.session.ctx().db();
        if !s.write {
            let root = tr.begin("inproc");
            let q = tr.span("session.lookup", || self.session.cached_prepare(&s.sql));
            let (q, _) = q.map_err(|e| {
                tr.end(root);
                e.to_string()
            })?;
            let mut sink = |_: ResultChunk| Ok(());
            let out = tr.span("executor.exec", || {
                q.prepared_plan().execute_stream_sched(
                    db.storage(),
                    &s.params,
                    db.exec_mode(),
                    db.exec_engine(),
                    &db.sched_config(),
                    &CancelToken::new(),
                    &mut sink,
                )
            });
            tr.end(root);
            out.result.map_err(|e| e.to_string())?;
            let inproc = tr.last_duration("inproc").expect("in-process span");
            layers.wire_minus_inproc_us.push(us(wire) - us(inproc));
            layers.qerror(q.scan_estimates(), &out.stats);
            layers
                .plan_bytes
                .push(mppart::plan::plan_size_bytes(q.plan()) as f64);
        } else if s.kind == "insert" {
            let probe = match self.probe {
                Some(t) => t,
                None => {
                    inproc::must(
                        &self.session,
                        &DDL.replace("TABLE orders", "TABLE orders_probe"),
                    )?;
                    let t = db
                        .catalog()
                        .table_by_name("orders_probe")
                        .map_err(|e| e.to_string())?
                        .oid;
                    *self.probe.insert(t)
                }
            };
            let row = Row::new(s.params.clone());
            let n = tr.span("storage.insert", || db.storage().insert(probe, [row]));
            n.map_err(|e| e.to_string())?;
            let t = tr.last_duration("storage.insert").expect("insert span");
            layers.insert_row_us.push(us(t));
        }
        Ok(Answer {
            rows: reply.rows,
            stats: reply.stats,
        })
    }

    fn stats_version(&self) -> u64 {
        self.session.ctx().db().planning_epoch().1
    }
}
