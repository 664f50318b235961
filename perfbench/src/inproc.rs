//! The in-process client of `table2` and `dss`: one session over one
//! database, and the same statements taken apart layer by layer for the
//! traced run.

use crate::harness::{Answer, SetupClock, Stmt};
use crate::trace::{Layers, Tracer, STMT};
use mpp_session::{normalize_sql, CacheKey, Session, SessionCtx, DEFAULT_CACHE_CAPACITY};
use mppart::common::{PartOid, Row, TableOid};
use mppart::executor::{ExecutionStats, PreparedPlan};
use mppart::expr::ColRefGenerator;
use mppart::{CancelToken, MppDb, PreparedQuery, ResultChunk, SchedConfig};
use std::sync::Arc;

/// Simulated MPP segments per database.
pub const SEGMENTS: usize = 4;

/// Executor workers, at most the host's two cores. One worker keeps runs
/// repeatable on a small shared host: a prototype of `dss` measured
/// 506–556 stmt/s over four runs with one worker and 451–576 over five
/// with two, a wider spread and no better median.
pub const WORKERS: usize = 1;

pub fn open_ctx() -> Arc<SessionCtx> {
    let db = MppDb::new(SEGMENTS).with_sched_config(SchedConfig {
        workers: Some(WORKERS),
        ..SchedConfig::default()
    });
    SessionCtx::with_db(db, DEFAULT_CACHE_CAPACITY)
}

/// Run a statement that must succeed during set-up (DDL, ANALYZE).
pub fn must(session: &Session, sql: &str) -> Result<(), String> {
    session
        .sql(sql)
        .map(drop)
        .map_err(|e| format!("set-up statement failed: {e} [{sql}]"))
}

/// Create a table by DDL, bulk-load `rows` through `Storage::insert` and
/// ANALYZE it, timing the three program calls. Returns the table's OID.
pub fn create_load_analyze(
    session: &Session,
    clock: &mut SetupClock,
    ddl: &str,
    name: &str,
    rows: Vec<Row>,
) -> Result<TableOid, String> {
    let db = session.ctx().db();
    clock.time("ddl", 0, || must(session, ddl))?;
    let oid = db
        .catalog()
        .table_by_name(name)
        .map_err(|e| e.to_string())?
        .oid;
    let n = rows.len() as u64;
    clock
        .time("insert", n, || db.storage().insert(oid, rows))
        .map_err(|e| format!("bulk load of {name} failed: {e}"))?;
    clock.time("analyze", n, || must(session, &format!("ANALYZE {name}")))?;
    Ok(oid)
}

/// Leaf partition OIDs of a table in declaration order (for range
/// partitions, ascending bounds).
pub fn leaves(db: &MppDb, table: TableOid) -> Result<Vec<PartOid>, String> {
    let tree = db.catalog().part_tree(table).map_err(|e| e.to_string())?;
    Ok(tree.partition_expansion())
}

/// The client path: ad-hoc text through the session and its plan cache.
pub fn exec(session: &Session, s: &Stmt) -> Result<Answer, String> {
    let out = session
        .sql_with_params(&s.sql, &s.params)
        .map_err(|e| e.to_string())?;
    Ok(Answer {
        rows: out.rows,
        stats: out.stats,
    })
}

/// The same statement as the client path takes it, with each layer's
/// public entry point called under a span inside one statement span: the
/// statement is classified and the plan cache looked up first, and only a
/// miss is parsed, bound and optimized before it executes; a hit executes
/// the cached plan.
///
/// A miss's plan cannot be handed to the cache (a `PreparedQuery` is only
/// built by `MppDb::prepare_with`), so after the statement span the cache
/// is filled by `Session::cached_prepare`, which plans the text again and
/// gives the plan's scan estimates. The runtime feedback is recorded as
/// `MppDb` does after an execution, so the catalog and the cache evolve
/// as in an untraced run: within the statement span on a hit, as on the
/// client path, and after the cache is filled on a miss.
pub fn exec_traced(
    session: &Session,
    gen: &ColRefGenerator,
    s: &Stmt,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<Answer, String> {
    let db = session.ctx().db();
    let stmt = tr.begin(STMT);
    let planned = (|| {
        // `Session::sql_with_params` parses every statement to route DDL
        // before it looks the text up.
        let ddl = tr.span("session.classify", || {
            mppart::sql::parse(&s.sql).map(|stmt| mppart::is_ddl(&stmt))
        })?;
        if ddl {
            return Err(mppart::common::Error::Unsupported(
                "DDL in the statement stream".into(),
            ));
        }
        let cached = tr.span("session.lookup", || {
            let key = CacheKey {
                sql: normalize_sql(&s.sql)?,
                planner: session.planner(),
                mode: db.exec_mode(),
            };
            Ok::<_, mppart::common::Error>(session.ctx().cache().lookup(&key, db.planning_epoch()))
        })?;
        if let Some(q) = cached {
            return Ok((Arc::clone(q.prepared_plan()), Some(q)));
        }
        let ast = tr.span("sql.parse", || mppart::sql::parse(&s.sql))?;
        let bound = tr.span("sql.bind", || mppart::sql::bind(&ast, db.catalog(), gen))?;
        let plan = tr.span("core.optimize", || db.optimizer().optimize(&bound.plan))?;
        Ok::<_, mppart::common::Error>((Arc::new(PreparedPlan::new(Arc::new(plan))), None))
    })();
    let (plan, hit) = match planned {
        Ok(p) => p,
        Err(e) => {
            tr.end(stmt);
            return Err(e.to_string());
        }
    };
    let mut rows = Vec::new();
    let mut sink = |chunk: ResultChunk| {
        chunk.append_to(&mut rows);
        Ok(())
    };
    let out = tr.span("executor.exec", || {
        plan.execute_stream_sched(
            db.storage(),
            &s.params,
            db.exec_mode(),
            db.exec_engine(),
            &db.sched_config(),
            &CancelToken::new(),
            &mut sink,
        )
    });
    if let (Some(q), Ok(())) = (&hit, &out.result) {
        tr.span("catalog.feedback", || feedback(db, q, &out.stats));
    }
    tr.end(stmt);
    out.result.map_err(|e| e.to_string())?;

    layers.lookup(hit.is_some());
    let q = match hit {
        Some(q) => q,
        None => {
            let (q, _) = session.cached_prepare(&s.sql).map_err(|e| e.to_string())?;
            feedback(db, &q, &out.stats);
            q
        }
    };
    layers
        .plan_bytes
        .push(mppart::plan::plan_size_bytes(plan.plan()) as f64);
    layers.absorb(&out.stats);
    layers.qerror(q.scan_estimates(), &out.stats);
    Ok(Answer {
        rows,
        stats: out.stats,
    })
}

/// Runtime cardinality feedback after a successful execution, as
/// `MppDb::stream_prepared` records it.
fn feedback(db: &MppDb, q: &PreparedQuery, stats: &ExecutionStats) {
    if db.adaptive_plans() {
        db.record_feedback(q.scan_estimates(), stats);
    }
}
