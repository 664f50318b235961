//! One benchmark command for the query path.
//!
//! ```text
//! perfbench --workload <table2|dss|oltp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates its inputs from the seed, hands them to the program through
//! its public API (DDL, `Storage::insert`, `ANALYZE`, SQL), sets up
//! several times, then drives one client in a closed loop for the given
//! time while checking every answer against its own model of the data.
//! The last line of standard output is one JSON object: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! second, traced pass over the same statement stream.

mod dss;
mod harness;
mod inproc;
mod oltp;
mod table2;
mod trace;
mod util;

use harness::{drive, Pass, SetupClock, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use trace::{median_or_zero, Layers, Tracer};
use util::{median, ms, Rng};

const USAGE: &str =
    "usage: perfbench --workload <table2|dss|oltp> --seed <n> --seconds <s> --trace <0|1>";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = val != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let opts = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2)
    });
    match run(&opts) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1)
        }
    }
}

fn run(o: &Opts) -> Result<String, String> {
    match o.workload.as_str() {
        "table2" => {
            let data = Arc::new(table2::generate(o.seed));
            measure(
                o,
                3,
                || table2::setup(Arc::clone(&data)),
                table2::Table2::setup_layers,
            )
        }
        "dss" => {
            let data = Arc::new(dss::generate(o.seed));
            measure(
                o,
                5,
                || dss::setup(Arc::clone(&data)),
                dss::Dss::setup_layers,
            )
        }
        "oltp" => {
            let data = Arc::new(oltp::generate(o.seed));
            measure(
                o,
                5,
                || oltp::setup(Arc::clone(&data)),
                oltp::Oltp::setup_layers,
            )
        }
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

/// Set up `reps` times (the median is `setup_s`; only the last instance
/// is kept), warm up with one round, then measure.
fn measure<W: Workload>(
    o: &Opts,
    reps: usize,
    setup: impl Fn() -> Result<(W, SetupClock), String>,
    layer_init: impl Fn(&W, &mut Layers),
) -> Result<String, String> {
    println!(
        "perfbench: workload {}, seed {}, {} s, {} segments, {} executor worker(s), {} cores",
        o.workload,
        o.seed,
        o.seconds,
        inproc::SEGMENTS,
        inproc::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut clocks = Vec::new();
    let mut setups = Vec::new();
    let mut w = None;
    for _ in 0..reps {
        drop(w.take());
        let before = host_slowdown();
        let (x, clock) = setup()?;
        let slowdown = (before + host_slowdown()) / 2.0;
        setups.push(clock.total.as_secs_f64() / slowdown);
        clocks.push(clock);
        w = Some(x);
    }
    let mut w = w.expect("at least one set-up");
    let raw: Vec<String> = clocks
        .iter()
        .map(|c| format!("{:.3}", c.total.as_secs_f64()))
        .collect();
    println!(
        "set-up: median {:.4} s scaled over {reps} (unscaled {} s)",
        median(&setups),
        raw.join(", ")
    );

    // A traced run splits its time between an untraced and a traced pass
    // over the same statement stream, so it takes no longer than an
    // untraced run.
    let secs = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let warm = drive(&mut w, &mut Rng::stream(o.seed, 1), 0.0, None);
    let pass = drive(&mut w, &mut Rng::stream(o.seed, 2), secs, None);
    report(&pass);
    let mut passes = vec![warm, pass];
    let metrics = if !o.trace {
        let pass = &passes[1];
        vec![
            ("setup_s", median(&setups), "s"),
            ("qps", pass.qps(), "stmt/s"),
            ("read_ms", Pass::class_ms(&pass.read_ms), "ms"),
            ("peak_rss_mb", util::peak_rss_mb(), "MiB"),
        ]
    } else {
        let mut tr = Tracer::new();
        let mut layers = Layers::default();
        layer_init(&w, &mut layers);
        let before = w.stats_version();
        let traced = drive(
            &mut w,
            &mut Rng::stream(o.seed, 2),
            secs,
            Some((&mut tr, &mut layers)),
        );
        let bumps = w.stats_version() - before;
        // Mean rates over each pass, scaled alike: the traced rate counts
        // statement spans only, not the in-process probes around them.
        let p = &passes[1];
        let untraced = p.completed() as f64 / p.busy.as_secs_f64() * p.slowdown();
        let (stmts, stmt_time) = tr.stmt_time();
        let traced_qps = stmts as f64 / stmt_time.as_secs_f64() * traced.slowdown();
        passes.push(traced);
        per_layer(o, &tr, &layers, &clocks, (untraced, traced_qps), bumps)?
    };
    drop(w);

    for p in passes.iter().flat_map(|p| &p.problems) {
        println!("PROBLEM {p}");
    }
    Ok(result_json(&passes, &metrics))
}

/// The result line. `correct` covers every statement that did not fail,
/// warm-up included.
fn result_json(passes: &[Pass], metrics: &[(&str, f64, &str)]) -> String {
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let wrong: u64 = passes.iter().map(|p| p.wrong).sum();
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        wrong == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to string");
    }
    json.push_str("}}");
    json
}

/// Median host slowdown over a few calibrations.
fn host_slowdown() -> f64 {
    median(&(0..5).map(|_| util::slowdown()).collect::<Vec<_>>())
}

fn report(pass: &Pass) {
    let slow: Vec<f64> = pass.rounds.iter().map(|r| r.2).collect();
    println!(
        "host slowdown against the reference: median {:.3} (p10 {:.3}, p90 {:.3}); \
         figures below are scaled by it",
        median(&slow),
        util::quantile(&slow, 0.1),
        util::quantile(&slow, 0.9)
    );
    println!(
        "statements: {} completed in {:.3} s busy ({:.1} stmt/s unscaled), {} rounds, \
         median round rate {:.1} stmt/s",
        pass.completed(),
        pass.busy.as_secs_f64(),
        pass.completed() as f64 / pass.busy.as_secs_f64(),
        pass.rounds.len(),
        pass.qps()
    );
    for (label, by_kind) in [("read", &pass.read_ms), ("write", &pass.write_ms)] {
        if by_kind.is_empty() {
            continue;
        }
        for (kind, v) in by_kind {
            println!(
                "  {label} {kind:<22} n={:<6} median {:.4} ms",
                v.len(),
                median(v)
            );
        }
        println!(
            "{label}_ms (geometric mean of per-kind medians): {:.4}",
            Pass::class_ms(by_kind)
        );
        Pass::print_tail(label, by_kind);
    }
}

/// Print the traced pass's self times, uncovered time and tracing
/// overhead, write its spans out, and compute the per-layer metrics.
fn per_layer(
    o: &Opts,
    tr: &Tracer,
    layers: &Layers,
    clocks: &[SetupClock],
    (untraced_qps, traced_qps): (f64, f64),
    stats_bumps: u64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let (stmts, stmt_time) = tr.stmt_time();
    let selfs = tr.self_times();
    println!(
        "traced: {stmts} statements, {traced_qps:.1} stmt/s scaled (untraced {untraced_qps:.1})"
    );
    println!(
        "self time per span ({:.3} s of statement time):",
        stmt_time.as_secs_f64()
    );
    for (name, (n, t)) in &selfs {
        println!(
            "  {name:<16} spans={n:<7} self {:>10.3} ms  {:>6.2}% of statement time",
            ms(*t),
            100.0 * t.as_secs_f64() / stmt_time.as_secs_f64()
        );
    }
    let uncovered = selfs.get(trace::STMT).map_or(0.0, |(_, t)| t.as_secs_f64());
    let uncovered_pct = 100.0 * uncovered / stmt_time.as_secs_f64();
    println!("statement time not covered by a layer span: {uncovered_pct:.3}%");
    println!("tracing overhead: {:.1} stmt/s", untraced_qps - traced_qps);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.tsv", o.workload, o.seed));
    tr.write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());

    let calls = |what: &str| -> Vec<(u64, f64)> {
        clocks
            .iter()
            .flat_map(|c| &c.calls)
            .filter(|c| c.0 == what)
            .map(|c| (c.1, c.2.as_secs_f64()))
            .collect()
    };
    let inserts = calls("insert");
    let load_rows: u64 = inserts.iter().map(|c| c.0).sum();
    let load_s: f64 = inserts.iter().map(|c| c.1).sum();
    let analyze_ms: Vec<f64> = calls("analyze").iter().map(|c| c.1 * 1e3).collect();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let part_overhead = if layers.scan_part_us.is_empty() || layers.scan_flat_us.is_empty() {
        0.0
    } else {
        100.0 * (median(&layers.scan_part_us) / median(&layers.scan_flat_us) - 1.0)
    };
    let qerror = if layers.qerr_ln.is_empty() {
        0.0
    } else {
        mean(&layers.qerr_ln).exp()
    };
    let stats_bumps = 1000.0 * ratio(stats_bumps, stmts);
    let m: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::from([
        (
            "sql.parse_us",
            (median_or_zero(&tr.durations_us("sql.parse")), "us"),
        ),
        (
            "sql.bind_us",
            (median_or_zero(&tr.durations_us("sql.bind")), "us"),
        ),
        (
            "core.optimize_us",
            (median_or_zero(&tr.durations_us("core.optimize")), "us"),
        ),
        ("core.scan_qerror", (qerror, "ratio")),
        (
            "plan.size_bytes",
            (median_or_zero(&layers.plan_bytes), "bytes"),
        ),
        (
            "session.hit_ratio",
            (ratio(layers.hits, layers.lookups), "ratio"),
        ),
        ("catalog.stats_bumps", (stats_bumps, "count")),
        (
            "executor.exec_us",
            (median_or_zero(&tr.durations_us("executor.exec")), "us"),
        ),
        ("executor.part_overhead_pct", (part_overhead, "%")),
        (
            "executor.part_opens",
            (layers.per_exec(layers.part_opens), "count"),
        ),
        (
            "executor.tuples_scanned",
            (layers.per_exec(layers.tuples_scanned), "count"),
        ),
        (
            "executor.rows_moved",
            (layers.per_exec(layers.rows_moved), "count"),
        ),
        (
            "executor.parts_scanned_frac",
            (mean(&layers.parts_frac), "ratio"),
        ),
        (
            "executor.vectorized_frac",
            (
                ratio(
                    layers.rows_vectorized,
                    layers.rows_vectorized + layers.rows_fallback,
                ),
                "ratio",
            ),
        ),
        (
            "storage.load_rows_per_s",
            (load_rows as f64 / load_s, "rows/s"),
        ),
        ("storage.analyze_ms", (median_or_zero(&analyze_ms), "ms")),
        (
            "storage.insert_row_us",
            (median_or_zero(&layers.insert_row_us), "us"),
        ),
        (
            "server.wire_us",
            (median_or_zero(&layers.wire_minus_inproc_us), "us"),
        ),
        ("server.frames_per_stmt", (mean(&layers.frames), "count")),
        ("trace.uncovered_pct", (uncovered_pct, "%")),
        ("trace.overhead_qps", (untraced_qps - traced_qps, "stmt/s")),
    ]);
    Ok(m.into_iter().map(|(k, (v, u))| (k, v, u)).collect())
}

#[cfg(test)]
mod tests {
    //! Planted faults: the checks must catch a wrong answer and a wrong
    //! partition set on every workload, and a run that met one must not
    //! report itself correct.

    use super::*;
    use harness::{Answer, Expect, Parts, Stmt};
    use mppart::common::PartOid;
    use util::Val;

    /// What [`Planted`] corrupts in the model's expectations.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        /// Every expected answer.
        Answers,
        /// One partition taken out of every non-empty exact set, so the
        /// program's correct scan is an over-scan of what is expected.
        OverScan,
        /// An impossible partition added to every partition set, so the
        /// program's correct scan misses one.
        UnderScan,
    }

    /// Wraps a workload and corrupts what its model expects, counting
    /// the statements it planted a fault into.
    struct Planted<W> {
        inner: W,
        fault: Fault,
        planted: u64,
    }

    fn corrupt_rows(rows: &mut Vec<Vec<Val>>) {
        match rows.first_mut().and_then(|r| r.first_mut()) {
            Some(Val::Num(x)) => *x += 1.0,
            Some(v) => *v = Val::Num(-1.0),
            None => rows.push(vec![Val::Num(0.0)]),
        }
    }

    impl<W: Workload> Workload for Planted<W> {
        fn round(&mut self, rng: &mut Rng) -> Vec<Stmt> {
            let mut stmts = self.inner.round(rng);
            for s in &mut stmts {
                let mut planted = false;
                match self.fault {
                    Fault::None => {}
                    Fault::Answers => {
                        planted = true;
                        match &mut s.expect {
                            Expect::Rows(rows) => corrupt_rows(rows),
                            Expect::Digest(d) => d.rows += 1,
                            Expect::SubsetOf(n, _) => *n += 1,
                        }
                    }
                    Fault::OverScan => {
                        for p in &mut s.parts {
                            if let Parts::Exact(_, set) = p {
                                planted |= set.pop_first().is_some();
                            }
                        }
                    }
                    Fault::UnderScan => {
                        for p in &mut s.parts {
                            let (Parts::Exact(_, set) | Parts::AtLeast(_, set)) = p;
                            planted |= set.insert(PartOid(u32::MAX));
                        }
                    }
                }
                self.planted += planted as u64;
            }
            stmts
        }
        fn exec(&mut self, s: &Stmt) -> Result<Answer, String> {
            self.inner.exec(s)
        }
        fn exec_traced(
            &mut self,
            s: &Stmt,
            tr: &mut Tracer,
            layers: &mut Layers,
        ) -> Result<Answer, String> {
            self.inner.exec_traced(s, tr, layers)
        }
        fn stats_version(&self) -> u64 {
            self.inner.stats_version()
        }
    }

    /// One honest round passes; then, for each kind of fault, exactly
    /// the statements it was planted into are caught. Returns how many
    /// statements carried an over-scan fault (a non-empty exact set).
    fn catches_planted_faults<W: Workload>(w: W) -> u64 {
        let mut p = Planted {
            inner: w,
            fault: Fault::None,
            planted: 0,
        };
        let mut rng = Rng::new(3);
        let honest = drive(&mut p, &mut rng, 0.0, None);
        assert_eq!(
            (honest.failed, honest.wrong),
            (0, 0),
            "{:?}",
            honest.problems
        );
        let mut over_scans = 0;
        for fault in [Fault::Answers, Fault::OverScan, Fault::UnderScan] {
            p.fault = fault;
            p.planted = 0;
            let pass = drive(&mut p, &mut rng, 0.0, None);
            assert_eq!(pass.failed, 0, "{:?}", pass.problems);
            assert_eq!(pass.wrong, p.planted, "{:?}", pass.problems);
            match fault {
                Fault::Answers => assert_eq!(pass.wrong, pass.attempted),
                Fault::UnderScan => assert!(p.planted > 0),
                _ => over_scans = p.planted,
            }
        }
        over_scans
    }

    #[test]
    fn dss_checks_catch_planted_faults() {
        let (w, _) = dss::setup(Arc::new(dss::generate(5))).unwrap();
        assert!(catches_planted_faults(w) > 0);
    }

    #[test]
    fn oltp_checks_catch_planted_faults() {
        // Every oltp read is eliminated at run time: no exact sets.
        let (w, _) = oltp::setup(Arc::new(oltp::generate(5))).unwrap();
        assert_eq!(catches_planted_faults(w), 0);
    }

    #[test]
    fn table2_checks_catch_planted_faults() {
        let (w, _) = table2::setup(Arc::new(table2::generate(5))).unwrap();
        assert!(catches_planted_faults(w) > 0);
    }

    #[test]
    fn a_run_with_a_wrong_answer_is_not_correct() {
        let wrong = Pass {
            attempted: 3,
            wrong: 1,
            ..Pass::default()
        };
        let json = result_json(&[Pass::default(), wrong], &[("qps", 1.5, "stmt/s")]);
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 0"));
    }
}
