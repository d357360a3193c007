//! The `session` workload: a `rasc-serve` server warm-started from a
//! snapshot of the §6.1 encoding of a ~20k-statement privilege program
//! (sent as batch-protocol lines), forking that base per connection.
//! Two closed-loop client connections with no think time each run seeded
//! edit transactions: `push`, an `occurs` read of `pc`, annotated `add`s,
//! an `occurs` query of the edited node, a re-check of the read, `pop`.
//!
//! The base program is also checked cold by the three engines, in steps
//! between the transaction batches (the PDS verdict is the reference for
//! the served base). With tracing on, the
//! first client's transactions are replayed in-process through
//! `BatchEngine::fork_from` and `handle_line`, so the serve layer's share
//! of each command shows as the TCP time minus the in-process time.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use rasc_cfgir::{Cfg, Program};
use rasc_inc::json::Json;
use rasc_inc::{BatchEngine, EngineBase};
use rasc_serve::{ServeConfig, ServeReport, Server, ServerHandle};

use crate::coretxn::{
    check_against_scratch, sample, CoreSubject, PrivilegeProperty, TxnDone, CHECKED_TXNS,
};
use crate::encode::encode_lines;
use crate::inputs::{self, ProgramText, Txn};
use crate::privilege::Verdicts;
use crate::trace::{SpanId, Tracer};
use crate::{
    interleave, stats, verdict_steps, Checks, Report, RunConfig, SetupClock, Step, TXN_SCRIPT,
    TXN_SHARE,
};

/// Closed-loop client connections (and server worker threads).
pub const CLIENTS: usize = 2;
/// Rough cost of one cold verdict of the base on the reference host.
const ROUND_SECONDS: f64 = 1.3;
/// Verdict steps per extra set-up; `setup_s` is the median of all
/// set-ups. One builds, snapshots and serves a base, about a second.
const SETUP_EVERY: u64 = 4;
/// Base nodes queried over TCP before any edit and checked against PDS.
const BASE_CHECKS: usize = 12;
/// Transactions of the first client replayed in-process when tracing.
const REPLAYED_TXNS: usize = 40;

/// A running server and what it was started from.
struct Setup {
    cfg: Cfg,
    base: EngineBase,
    snapshot_bytes: usize,
    dir: PathBuf,
    handle: ServerHandle,
    join: JoinHandle<io::Result<ServeReport>>,
}

impl Setup {
    fn stop(self) -> ServeReport {
        self.handle.shutdown();
        let report = self.join.join().expect("server thread").expect("server io");
        let _ = std::fs::remove_dir_all(&self.dir);
        report
    }
}

/// Builds the base from its program text, snapshots it and serves it.
/// `clock` times the library calls: parse, CFG build, replaying the
/// protocol lines, the snapshot, `EngineBase::decode` and `Server::bind`.
fn setup(
    base_text: &ProgramText,
    prop: &PrivilegeProperty,
    i: u64,
    tr: &mut Tracer,
    clock: &mut SetupClock,
) -> Setup {
    let graph = clock.time(|| {
        let program = Program::parse(&base_text.text).expect("generated programs parse");
        Cfg::build(&program).expect("generated programs build")
    });
    let lines = encode_lines(&graph, |name| prop.sigma.lookup(name).is_some());
    let bytes = clock.time(|| {
        let engine = tr.time("inc.base_build", SpanId::ROOT, i, || {
            let mut engine = BatchEngine::new(prop.sigma.clone(), &prop.dfa);
            for line in &lines {
                let response = engine.handle_line(line).unwrap_or_default();
                assert!(
                    !response.contains("\"error\""),
                    "the base encoding is well-formed: {line} -> {response}"
                );
            }
            engine
        });
        engine.snapshot_bytes().expect("a solved engine snapshots")
    });
    let dir = Path::new(".bench_out").join(format!("session-{}-{i}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the snapshot directory");
    std::fs::write(dir.join("current.snap"), &bytes).expect("write the base snapshot");
    let base = clock
        .time(|| {
            tr.time("inc.decode", SpanId::ROOT, i, || {
                EngineBase::decode(&bytes, &prop.sigma)
            })
        })
        .expect("the snapshot decodes");
    let config = ServeConfig {
        threads: CLIENTS,
        max_connections: 4 * CLIENTS,
        allow_shutdown_command: false,
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = clock
        .time(|| {
            tr.time("serve.bind", SpanId::ROOT, i, || {
                Server::bind("127.0.0.1:0", prop.sigma.clone(), &prop.dfa, config)
            })
        })
        .expect("bind a loopback port");
    let (handle, join) = server.spawn();
    Setup {
        cfg: graph,
        base,
        snapshot_bytes: bytes.len(),
        dir,
        handle,
        join,
    }
}

/// One JSON-lines connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// Sends one request and reads its response.
    fn request(&mut self, req: &str) -> io::Result<Json> {
        self.writer.write_all(req.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Json::parse(self.line.trim()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

fn is_ok(r: &io::Result<Json>) -> bool {
    matches!(r, Ok(j) if j.get("error").is_none())
}

fn is_overloaded(r: &io::Result<Json>) -> bool {
    let code = |j: &Json| {
        j.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    matches!(r, Ok(j) if code(j).as_deref() == Some("overloaded"))
}

/// The protocol lines of one transaction.
struct TxnLines {
    read: String,
    adds: Vec<String>,
    query: String,
}

impl TxnLines {
    /// The queries in the order a transaction sends them (see
    /// [`Txn::queried`]).
    fn queries(&self) -> [&str; 3] {
        [&self.read, &self.query, &self.read]
    }
}

fn occurs_line(node: usize) -> String {
    format!(r#"{{"cmd":"query","kind":"occurs","var":"S{node}","cons":"pc"}}"#)
}

fn txn_lines(txn: &Txn, symbols: &[String]) -> TxnLines {
    TxnLines {
        read: occurs_line(txn.read),
        adds: txn
            .adds
            .iter()
            .map(|&(a, b, ev)| {
                format!(
                    r#"{{"cmd":"add","lhs":"S{a}","rhs":"S{b}","ann":["{}"]}}"#,
                    symbols[ev]
                )
            })
            .collect(),
        query: occurs_line(txn.query),
    }
}

const PUSH: &str = r#"{"cmd":"push"}"#;
const POP: &str = r#"{"cmd":"pop"}"#;

/// One closed-loop client connection, resumable across batches.
struct Client {
    cid: u64,
    conn: Option<Conn>,
    done: Vec<TxnDone>,
    checks: Checks,
    rejected: u64,
    tr: Tracer,
    wall_s: f64,
}

impl Client {
    fn new(addr: SocketAddr, cid: u64, tr: Tracer) -> Client {
        let mut checks = Checks::default();
        let conn = Conn::open(addr);
        if let Err(e) = &conn {
            checks.op(false, || format!("client {cid}: connection refused: {e}"));
        }
        Client {
            cid,
            conn: conn.ok(),
            done: Vec::new(),
            checks,
            rejected: 0,
            tr,
            wall_s: 0.0,
        }
    }

    /// Sends one request inside transaction span `span` and counts it as
    /// an operation. Returns the response if it carries no error.
    fn request(&mut self, name: &'static str, line: &str, span: SpanId, g: u64) -> Option<Json> {
        let conn = self.conn.as_mut()?;
        let r = self.tr.time(name, span, g, || conn.request(line));
        if is_overloaded(&r) {
            self.rejected += 1;
        }
        let cid = self.cid;
        let ok = self
            .checks
            .op(is_ok(&r), || format!("client {cid}: {line} -> {r:?}"));
        if !ok {
            // Any failed request ends the client; the run fails anyway.
            self.conn = None;
        }
        r.ok().filter(|_| ok)
    }

    /// Runs the next transactions of `script` until `deadline` (at least
    /// one per batch).
    fn run_until(&mut self, script: &[Txn], symbols: &[String], deadline: Instant) {
        let batch = Instant::now();
        let first = self.done.last().map_or(0, |d| d.index + 1);
        for (i, txn) in script.iter().enumerate().skip(first) {
            if i > first && Instant::now() >= deadline {
                break;
            }
            let g = (self.cid << 32) | i as u64;
            let lines = txn_lines(txn, symbols);
            let start = Instant::now();
            let span = self.tr.begin("bench.txn", SpanId::ROOT, g);
            self.request("serve.push", PUSH, span, g);
            let [read, query, recheck] = lines.queries();
            let mut answers = vec![self.query(read, span, g)];
            for add in &lines.adds {
                self.request("serve.add", add, span, g);
            }
            answers.push(self.query(query, span, g));
            answers.push(self.query(recheck, span, g));
            self.request("serve.pop", POP, span, g);
            self.tr.end(span);
            if self.conn.is_none() {
                break;
            }
            self.done.push(TxnDone {
                index: i,
                ms: start.elapsed().as_secs_f64() * 1e3,
                answers,
            });
        }
        self.wall_s += batch.elapsed().as_secs_f64();
    }

    /// Sends one `occurs` query; the answer as 0 or 1. A response
    /// without a boolean result fails the request.
    fn query(&mut self, line: &str, span: SpanId, g: u64) -> u64 {
        let Some(r) = self.request("serve.query", line, span, g) else {
            return 0;
        };
        let result = r.get("result").and_then(Json::as_bool);
        if result.is_none() {
            self.checks
                .fail(format!("client {}: {line} -> {r:?}", self.cid));
        }
        u64::from(result == Some(true))
    }
}

/// Queries a seeded sample of base nodes over TCP before any edit and
/// checks each answer against the PDS verdict.
fn check_base(
    addr: SocketAddr,
    seed: u64,
    live: &[(usize, usize)],
    violating: &[usize],
    checks: &mut Checks,
) {
    let mut picks: Vec<usize> = sample(seed ^ 0xba5e, live.len(), BASE_CHECKS / 2)
        .into_iter()
        .map(|i| live[i].0)
        .collect();
    picks.extend(
        sample(seed ^ 0xba5f, violating.len(), BASE_CHECKS / 2)
            .into_iter()
            .map(|i| violating[i]),
    );
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            checks.op(false, || format!("session base: connection refused: {e}"));
            return;
        }
    };
    for node in picks {
        let r = conn.request(&occurs_line(node));
        let got = r
            .as_ref()
            .ok()
            .and_then(|j| j.get("result"))
            .and_then(Json::as_bool);
        let want = violating.binary_search(&node).is_ok();
        checks.op(got == Some(want), || {
            format!("session base: served occurs(S{node}) -> {r:?}, PDS post* says {want}")
        });
    }
}

/// In-process replay of `done` (the first client's transactions) on a
/// fork of `base`: per-command spans, solver facts per add, query-cache
/// hits, and the answers checked against the served ones.
fn replay(
    base: &EngineBase,
    script: &[Txn],
    symbols: &[String],
    done: &[TxnDone],
    tr: &mut Tracer,
    report: &mut Report,
) {
    let mut engine = BatchEngine::fork_from(base);
    let mut facts = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    let request_stats = |engine: &mut BatchEngine| {
        let r = engine
            .handle_line(r#"{"cmd":"stats","scope":"request"}"#)
            .and_then(|s| Json::parse(&s).ok());
        let field = |k: &str| {
            r.as_ref()
                .and_then(|j| j.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        (
            field("facts_processed"),
            field("cache_hits"),
            field("cache_misses"),
        )
    };
    for d in done.iter().take(REPLAYED_TXNS) {
        let g = (1 << 40) | d.index as u64;
        let lines = txn_lines(&script[d.index], symbols);
        let span = tr.begin("inc.replay.txn", SpanId::ROOT, g);
        tr.time("inc.push", span, g, || engine.handle_line(PUSH));
        let mut answers = Vec::new();
        let mut query = |line: &str, tr: &mut Tracer, engine: &mut BatchEngine| {
            engine.begin_request(None);
            let r = tr.time("inc.query", span, g, || engine.handle_line(line));
            let (_, h, m) = request_stats(engine);
            hits += h;
            misses += m;
            let result = r
                .and_then(|s| Json::parse(&s).ok())
                .and_then(|j| j.get("result").and_then(Json::as_bool));
            answers.push(u64::from(result == Some(true)));
        };
        let [read, query_line, recheck] = lines.queries();
        query(read, tr, &mut engine);
        for add in &lines.adds {
            engine.begin_request(None);
            tr.time("inc.add", span, g, || engine.handle_line(add));
            facts.push(request_stats(&mut engine).0 as f64);
        }
        query(query_line, tr, &mut engine);
        query(recheck, tr, &mut engine);
        tr.time("inc.pop", span, g, || engine.handle_line(POP));
        tr.end(span);
        if answers != d.answers {
            report.checks.fail(format!(
                "session: in-process replay of transaction {} answered {answers:?}, the server {:?}",
                d.index, d.answers
            ));
        }
    }
    report
        .layer
        .insert("inc.facts_per_add", stats::median(&facts));
    let lookups = (hits + misses).max(1);
    report
        .layer
        .insert("inc.cache_hit_ratio", hits as f64 / lookups as f64);
}

/// Runs the `session` workload.
pub fn run(cfg: &RunConfig) -> Report {
    let origin = Instant::now();
    let mut tr = cfg.tracer(origin);
    let mut report = Report::default();
    let (sigma, dfa, events) = inputs::privilege_property();
    let prop = PrivilegeProperty { sigma, dfa };

    let base_text = inputs::package(
        "session",
        inputs::SESSION_STMTS,
        &events,
        inputs::TABLE1_GENERATOR_SEED,
        cfg.seed,
    );
    // The first set-up serves the clients. Further set-ups run before every
    // `SETUP_EVERY`-th verdict step and are stopped at once: they only time
    // set-up, so that `setup_s` samples the whole window as the other
    // metrics do.
    let mut clock = SetupClock::default();
    let ready = setup(&base_text, &prop, 0, &mut tr, &mut clock);
    let mut setup_times = vec![clock.seconds()];
    report.layer.insert(
        "inc.snapshot_mb",
        ready.snapshot_bytes as f64 / (1024.0 * 1024.0),
    );
    let addr = ready.handle.addr();
    eprintln!(
        "session: base {} statements, {} nodes, snapshot {} bytes",
        base_text.stmts,
        ready.cfg.num_nodes(),
        ready.snapshot_bytes
    );
    // Nodes `pc` reaches in the base, with their functions: what
    // transactions edit and query.
    let live = CoreSubject::build(&ready.cfg, &prop, &[]).live(&ready.cfg);

    let programs = [base_text];
    // An untimed first verdict gives the PDS reference for the base check,
    // which must run before the clients take both server workers.
    let mut warmup = Verdicts::default();
    warmup.step(
        0,
        &programs,
        &prop,
        &mut Tracer::new(None),
        &mut report.checks,
    );
    let violating = &warmup.counts[0].violating;
    check_base(addr, cfg.seed, &live, violating, &mut report.checks);

    let symbols: Vec<String> = prop
        .sigma
        .symbols()
        .map(|s| prop.sigma.name(s).to_owned())
        .collect();
    let scripts: Vec<Vec<Txn>> = (0..CLIENTS as u64)
        .map(|c| {
            let seed = cfg.seed ^ ((c + 1) << 48);
            inputs::txn_script(seed, &live, symbols.len(), TXN_SCRIPT)
        })
        .collect();
    let mut clients: Vec<Client> = (0..CLIENTS as u64)
        .map(|c| Client::new(addr, c, cfg.tracer(origin)))
        .collect();
    let mut verdicts = Verdicts::default();
    let steps = verdict_steps(cfg.seconds * (1.0 - TXN_SHARE), ROUND_SECONDS, 1);
    report.measured =
        interleave(
            steps,
            cfg.seconds * TXN_SHARE,
            &mut report.probe,
            |step| match step {
                Step::Verdict(k) => {
                    if k % SETUP_EVERY == 0 {
                        let mut clock = SetupClock::default();
                        setup(&programs[0], &prop, k + 1, &mut tr, &mut clock).stop();
                        setup_times.push(clock.seconds());
                    }
                    verdicts.step(k, &programs, &prop, &mut tr, &mut report.checks);
                }
                Step::Txns(deadline) => std::thread::scope(|scope| {
                    for (client, script) in clients.iter_mut().zip(&scripts) {
                        let symbols = &symbols;
                        scope.spawn(move || client.run_until(script, symbols, deadline));
                    }
                }),
            },
        );
    report.e2e.insert("setup_s", stats::median(&setup_times));
    verdicts.record(&mut report);

    let mut latencies = Vec::new();
    let mut rejected = 0;
    let mut wall_s: f64 = 0.0;
    let mut dones = Vec::new();
    for client in clients {
        latencies.extend(client.done.iter().map(|d| d.ms));
        report.checks.absorb(client.checks);
        rejected += client.rejected;
        wall_s = wall_s.max(client.wall_s);
        tr.absorb(client.tr);
        dones.push(client.done);
    }
    report.record_txns(&latencies, wall_s);

    if tr.enabled() {
        replay(
            &ready.base,
            &scripts[0],
            &symbols,
            &dones[0],
            &mut tr,
            &mut report,
        );
    }
    for (c, done) in dones.iter().enumerate() {
        let picks = sample(cfg.seed ^ 0x7e57 ^ c as u64, done.len(), CHECKED_TXNS);
        check_against_scratch(
            &ready.cfg,
            &prop,
            &scripts[c],
            done,
            &picks,
            "session txn",
            &mut report.checks,
        );
    }
    let served = ready.stop();
    report
        .layer
        .insert("serve.rejected", (served.rejected + rejected) as f64);
    eprintln!(
        "session: {} verdict round(s), {} transactions over {} connections",
        verdicts.rounds.len(),
        latencies.len(),
        served.connections
    );
    report.spans = tr.into_spans();
    report
}
