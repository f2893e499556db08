//! The serve workload: a `udsim serve` daemon with default settings,
//! driven in a closed loop by keep-alive client connections. Most
//! requests hit the compiled-engine cache; one in sixteen carries a
//! never-seen netlist and pays parse, compile and insert.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use uds_core::telemetry::json::Json;
use uds_core::GuardedSimulator;
use uds_netlist::bench_format;
use uds_netlist::generators::iscas::Iscas85;
use uds_netlist::generators::random::{layered, LayeredConfig};

use crate::common::{
    bit_string, mean, median, normalized, oracle_rows, proc_status_bytes, quantile, reference,
    secs, Rng, MIB,
};
use crate::stream::{self, StreamSpec};
use crate::{Args, Report};

/// Circuits the cache keeps hot.
const HOT: [Iscas85; 4] = [Iscas85::C432, Iscas85::C499, Iscas85::C880, Iscas85::C1355];
/// One request in this many carries a never-seen netlist.
const MISS_EVERY: usize = 16;
const VECTORS_PER_REQUEST: usize = 64;
/// Requests per round; each round runs its own daemon.
const ROUND_REQUESTS: usize = 192;
const MIN_ROUNDS: usize = 3;
/// Client connections, each a closed loop.
const CONNECTIONS: usize = 2;

/// One generated `POST /simulate` body and what its answer must hold.
struct Body {
    circuit: String,
    json: String,
    /// The response's `rows` member, as the oracle computes it.
    rows: String,
    hot: bool,
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 8);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn body(netlist: &uds_netlist::Netlist, rng: &mut Rng, hot: bool) -> Body {
    let vectors = rng.vectors(netlist.primary_inputs().len(), VECTORS_PER_REQUEST);
    let rendered: Vec<String> = vectors
        .iter()
        .map(|v| {
            let bits: Vec<&str> = v.iter().map(|&b| if b { "1" } else { "0" }).collect();
            format!("[{}]", bits.join(","))
        })
        .collect();
    let rows: Vec<String> = oracle_rows(netlist, &vectors)
        .iter()
        .map(|row| format!("\"{}\"", bit_string(row)))
        .collect();
    Body {
        circuit: netlist.name().to_owned(),
        json: format!(
            "{{\"name\":\"{}\",\"bench\":\"{}\",\"vectors\":[{}]}}",
            netlist.name(),
            json_escape(&bench_format::write(netlist)),
            rendered.join(",")
        ),
        rows: format!("\"rows\":[{}]", rows.join(",")),
        hot,
    }
}

/// A round's request sequence, from the seed: hot circuits drawn at
/// random, every sixteenth request a fresh random netlist of c432's
/// size.
fn bodies(seed: u64) -> Vec<Body> {
    let mut rng = Rng::new(seed);
    let hot: Vec<_> = HOT.iter().map(|c| c.build()).collect();
    let c432 = Iscas85::C432.target();
    (0..ROUND_REQUESTS)
        .map(|i| {
            if i % MISS_EVERY == MISS_EVERY - 1 {
                let config = LayeredConfig {
                    primary_inputs: c432.primary_inputs,
                    primary_outputs: c432.primary_outputs,
                    xor_fraction: 0.15,
                    inverter_fraction: 0.08,
                    locality: 0.35,
                    max_fanin: 9,
                    seed: rng.next_u64(),
                    ..LayeredConfig::new(format!("miss{i}"), c432.gates, c432.depth)
                };
                let netlist = layered(&config).expect("c432-sized configs are valid");
                body(&netlist, &mut rng, false)
            } else {
                let pick = rng.below(hot.len());
                body(&hot[pick], &mut rng, true)
            }
        })
        .collect()
}

/// A parsed HTTP response.
struct Response {
    status: u16,
    close: bool,
    body: String,
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request, written in a single call, and reads the answer.
    fn send(&mut self, request: &[u8]) -> std::io::Result<Response> {
        self.reader.get_mut().write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0;
        let mut close = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').unwrap_or((header, ""));
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(std::io::Error::other)?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            close,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

fn get(port: u16, path: &str) -> std::io::Result<Response> {
    Conn::open(port)?.send(
        format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(body: &Body, trace_id: &str) -> Vec<u8> {
    let mut request = format!(
        "POST /simulate HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nx-uds-trace-id: {trace_id}\r\n\r\n",
        body.json.len()
    )
    .into_bytes();
    request.extend_from_slice(body.json.as_bytes());
    request
}

/// Why `response` is not the right answer to `body`, if it is not.
fn fault(response: &std::io::Result<Response>, body: &Body) -> Option<String> {
    let engine = format!("\"engine\":\"{}\"", GuardedSimulator::DEFAULT_CHAIN[0]);
    match response {
        Err(e) => Some(format!("transport error: {e}")),
        Ok(r) if r.status != 200 => Some(format!("status {}: {}", r.status, r.body.trim())),
        Ok(r) if !r.body.contains(&engine) || !r.body.contains("\"fallbacks\":0,") => {
            Some(format!(
                "wrong engine or a fallback: {}",
                &r.body[..r.body.len().min(200)]
            ))
        }
        Ok(r) if !r.body.contains(&body.rows) => Some("rows differ from the oracle".to_owned()),
        Ok(_) => None,
    }
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    port: u16,
    pid: String,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `udsim serve` on an ephemeral port and waits until
    /// `/readyz` answers 200. Returns the daemon and the seconds from
    /// spawn to ready, normalized by the reference run around them.
    fn start(udsim: &Path, reqlog: Option<&Path>) -> Result<(Daemon, f64), String> {
        let before = reference(1);
        let (daemon, s) = Daemon::spawn(udsim, reqlog)?;
        Ok((daemon, normalized(s, (before + reference(1)) / 2.0)))
    }

    fn spawn(udsim: &Path, reqlog: Option<&Path>) -> Result<(Daemon, f64), String> {
        let clock = Instant::now();
        let mut command = Command::new(udsim);
        command.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(path) = reqlog {
            command.arg("--reqlog").arg(path);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", udsim.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut daemon = Daemon {
            pid: child.id().to_string(),
            child,
            port: 0,
            stderr: None,
        };
        // The first stderr line announces the bound port.
        let mut line = String::new();
        let _ = stderr.read_line(&mut line);
        daemon.port = line
            .trim()
            .rsplit(':')
            .next()
            .and_then(|port| port.parse().ok())
            .ok_or_else(|| format!("daemon did not announce a port: {line:?}"))?;
        daemon.stderr = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        }));
        loop {
            if matches!(get(daemon.port, "/readyz"), Ok(r) if r.status == 200) {
                return Ok((daemon, secs(clock)));
            }
            if secs(clock) > 60.0 {
                return Err("daemon not ready after 60 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(thread) = self.stderr.take() {
            let _ = thread.join();
        }
    }
}

/// One answered request.
struct Sample {
    rtt_ms: f64,
    fault: Option<String>,
    trace_id: String,
}

/// What one round measured.
struct Round {
    setup_s: f64,
    load_s: f64,
    /// The daemon's peak RSS over its life, in MiB.
    peak_mb: f64,
    samples: Vec<Sample>,
    /// Requests answered correctly.
    answered: usize,
    connections: usize,
    /// `cache.hits / (hits + misses)` from `/metrics`.
    hit_ratio: f64,
}

fn prom_counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Starts a daemon, warms the cache with each hot circuit, drives the
/// round's requests over keep-alive connections, and stops it.
fn round(
    udsim: &Path,
    bodies: &[Body],
    tag: &str,
    reqlog: Option<&Path>,
    report: &mut Report,
) -> Result<Round, String> {
    let (daemon, setup_s) = Daemon::start(udsim, reqlog)?;
    let mut warm = Conn::open(daemon.port).map_err(|e| e.to_string())?;
    let mut warmed: Vec<&str> = Vec::new();
    for body in bodies.iter().filter(|b| b.hot) {
        if warmed.contains(&body.circuit.as_str()) {
            continue;
        }
        let response = warm.send(&post(body, &format!("{tag}w{}", warmed.len())));
        report.attempt(fault(&response, body));
        if response.as_ref().map_or(true, |r| r.close) {
            warm = Conn::open(daemon.port).map_err(|e| e.to_string())?;
        }
        warmed.push(&body.circuit);
    }
    drop(warm);

    let next = AtomicUsize::new(0);
    let clock = Instant::now();
    let per_client: Vec<(Vec<Sample>, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    let mut connections = 0;
                    let mut conn: Option<Conn> = None;
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(body) = bodies.get(index) else { break };
                        let trace_id = format!("{tag}r{index}");
                        let request = post(body, &trace_id);
                        let start = Instant::now();
                        let response = match conn.as_mut() {
                            Some(c) => c.send(&request),
                            None => Conn::open(daemon.port).and_then(|mut c| {
                                connections += 1;
                                let response = c.send(&request);
                                conn = Some(c);
                                response
                            }),
                        };
                        let rtt_ms = secs(start) * 1e3;
                        if response.as_ref().map_or(true, |r| r.close) {
                            conn = None;
                        }
                        samples.push(Sample {
                            rtt_ms,
                            fault: fault(&response, body),
                            trace_id,
                        });
                    }
                    (samples, connections)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    let load_s = secs(clock);
    // The daemon holds no benchmark inputs: its whole peak is the program's.
    let peak = proc_status_bytes(&daemon.pid, "VmHWM");
    let metrics = get(daemon.port, "/metrics")
        .map_err(|e| e.to_string())?
        .body;
    let hits = prom_counter(&metrics, "uds_cache_hits");
    let misses = prom_counter(&metrics, "uds_cache_misses");
    drop(daemon);

    let mut samples = Vec::new();
    let mut connections = 0;
    for (client_samples, client_connections) in per_client {
        connections += client_connections;
        samples.extend(client_samples);
    }
    let answered = samples.iter().filter(|s| s.fault.is_none()).count();
    for sample in &mut samples {
        report.attempt(sample.fault.take());
    }
    Ok(Round {
        setup_s,
        load_s,
        peak_mb: peak as f64 / MIB,
        samples,
        answered,
        connections,
        hit_ratio: hits / (hits + misses).max(1.0),
    })
}

/// Pooled client latencies of `rounds`, in milliseconds.
fn latencies(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.rtt_ms))
        .collect()
}

pub fn run(args: &Args, trace: bool) -> Result<Report, String> {
    let bodies = bodies(args.seed);
    let mut report = Report::default();
    if trace {
        return traced(args, &bodies, report);
    }
    let mut rounds = Vec::new();
    let mut setups = Vec::new();
    let mut load_s = 0.0;
    while load_s < args.seconds as f64 || rounds.len() < MIN_ROUNDS {
        // One more set-up per round, on a daemon that serves nothing.
        setups.push(Daemon::start(&args.udsim, None)?.1);
        let round = round(
            &args.udsim,
            &bodies,
            &format!("r{}", rounds.len()),
            None,
            &mut report,
        )?;
        setups.push(round.setup_s);
        load_s += round.load_s;
        rounds.push(round);
    }
    let rtts = latencies(&rounds);
    let answered = rounds.iter().map(|r| r.answered).sum::<usize>() as f64;
    // Raw host time: a round's load time is mostly socket waits, which
    // the CPU-bound reference does not track.
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| (r.answered * VECTORS_PER_REQUEST) as f64 / r.load_s)
        .collect();
    let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_mb).collect();
    report.metric("setup_s", median(&setups));
    report.metric("vectors_per_s", median(&rates));
    report.metric("peak_rss_mb", median(&peaks));
    report.note(format!(
        "{} rounds of {ROUND_REQUESTS} requests over {CONNECTIONS} keep-alive connections, {} \
         set-ups; {} answered correctly; round trip p50 {:.3} ms, p99 {:.3} ms ({} samples, {} \
         beyond p99); {:.1} requests/s overall",
        rounds.len(),
        setups.len(),
        answered,
        median(&rtts),
        quantile(&rtts, 0.99),
        rtts.len(),
        rtts.len() / 100,
        answered / load_s
    ));
    Ok(report)
}

/// Request-log phases every request runs; `compile` runs on misses only.
const PHASES: [&str; 5] = [
    "queue_wait",
    "parse",
    "cache_lookup",
    "simulate",
    "serialize",
];

/// One `/simulate` line of the daemon's request log.
struct LogLine {
    wall_ms: f64,
    phases: Vec<(String, f64)>,
}

fn read_reqlog(path: &Path) -> Result<HashMap<String, LogLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = HashMap::new();
    for line in text.lines() {
        let doc = Json::parse(line).map_err(|e| format!("reqlog line: {e}"))?;
        if doc.get("path").and_then(Json::as_str) != Some("/simulate") {
            continue;
        }
        let id = doc
            .get("trace_id")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let phases = doc
            .get("phase_ms")
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, value)| Some((name.clone(), value.as_f64()?)))
            .collect();
        let wall_ns = doc
            .get("wall_ns")
            .and_then(Json::as_u64)
            .unwrap_or_default();
        lines.insert(
            id.to_owned(),
            LogLine {
                wall_ms: wall_ns as f64 / 1e6,
                phases,
            },
        );
    }
    Ok(lines)
}

/// The traced run: rounds alternate between a daemon with the request
/// log on and one without, and the log's `phase_ms` splits each
/// request's server time into its phases. The engine layers are timed
/// in-process on each hot circuit at the request's batch size.
fn traced(args: &Args, bodies: &[Body], mut report: Report) -> Result<Report, String> {
    let mut plain = Vec::new();
    let mut logged = Vec::new();
    let mut logs = HashMap::new();
    let mut paths: Vec<PathBuf> = Vec::new();
    let clock = Instant::now();
    while secs(clock) < args.seconds as f64 || logged.len() < 2 {
        let tag = format!("t{}", logged.len());
        let path = args
            .work_dir
            .join(format!("reqlog-{}-{tag}.ndjson", std::process::id()));
        paths.push(path.clone());
        logged.push(round(&args.udsim, bodies, &tag, Some(&path), &mut report)?);
        logs.extend(read_reqlog(&path)?);
        plain.push(round(
            &args.udsim,
            bodies,
            &format!("p{}", plain.len()),
            None,
            &mut report,
        )?);
    }
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }

    let mut phase: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut compile = Vec::new();
    let mut server_wall = Vec::new();
    let mut server_rest = Vec::new();
    let mut client_gap = Vec::new();
    let mut client_rest = Vec::new();
    for round in &logged {
        for sample in &round.samples {
            let Some(line) = logs.get(&sample.trace_id) else {
                report.attempt(Some(format!("no reqlog line for {}", sample.trace_id)));
                continue;
            };
            let total: f64 = line.phases.iter().map(|(_, ms)| ms).sum();
            for name in PHASES {
                let ms = line
                    .phases
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |p| p.1);
                phase.entry(name).or_default().push(ms);
            }
            if let Some((_, ms)) = line.phases.iter().find(|(n, _)| n == "compile") {
                compile.push(*ms);
            }
            server_wall.push(line.wall_ms);
            server_rest.push(line.wall_ms - total);
            client_gap.push(sample.rtt_ms - line.wall_ms);
            client_rest.push(sample.rtt_ms - total);
        }
    }
    for name in PHASES {
        report.metric(&format!("serve.{name}_ms"), median(&phase[name]));
    }
    report.metric("serve.compile_ms", median(&compile));
    report.metric("serve.server_wall_ms", median(&server_wall));
    report.metric("serve.unattributed_ms", median(&server_rest));
    report.metric("http.client_gap_ms", median(&client_gap));
    let requests: usize = logged.iter().map(|r| r.samples.len()).sum();
    let connections: usize = logged.iter().map(|r| r.connections).sum();
    report.metric(
        "http.requests_per_connection",
        requests as f64 / connections.max(1) as f64,
    );
    report.metric(
        "cache.hit_ratio",
        mean(&logged.iter().map(|r| r.hit_ratio).collect::<Vec<_>>()),
    );
    report.metric(
        "trace.overhead",
        median(&latencies(&logged)) / median(&latencies(&plain)) - 1.0,
    );
    report.metric("unattributed_s", median(&client_rest) / 1e3);

    // The engine layers behind each hot circuit, at the request's size,
    // averaged over the circuits.
    let mut per_circuit: Vec<Report> = Vec::new();
    for circuit in HOT {
        let spec = StreamSpec {
            circuit,
            native: false,
            jobs: 1,
            stream_vectors: VECTORS_PER_REQUEST * 32,
            job_vectors: VECTORS_PER_REQUEST,
        };
        let budget_s = args.seconds as f64 / 4.0 / HOT.len() as f64;
        per_circuit.push(stream::layers_only(args, &spec, budget_s)?);
    }
    for layer in &per_circuit {
        report.absorb_checks(layer);
    }
    for name in per_circuit[0].metric_names() {
        let values: Vec<f64> = per_circuit.iter().filter_map(|r| r.value(name)).collect();
        report.metric(name, mean(&values));
    }
    report.note(format!(
        "{} logged and {} unlogged rounds of {ROUND_REQUESTS} requests; engine layers averaged \
         over {} hot circuits at {VECTORS_PER_REQUEST} vectors",
        logged.len(),
        plain.len(),
        HOT.len()
    ));
    Ok(report)
}
