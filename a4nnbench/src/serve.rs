//! `serve_classify`: `a4nn-serve` on the epoll reactor, serving the Pareto
//! front of a seeded real-training commons with checkpoints, driven by one
//! load-generator thread over one connection in two phases: an open loop at
//! a fixed offered rate, then a closed loop that keeps a fixed window of
//! requests in flight.

use crate::trace::Tracer;
use crate::util::{median, quantile, supported_tail, Report};
use a4nn_core::CheckpointStore;
use a4nn_lineage::DataCommons;
use a4nn_metrics::{names, Histogram, MetricsRegistry, MetricsSnapshot};
use a4nn_net::{encode, FrameDecoder, PROTOCOL_VERSION};
use a4nn_nn::Dataset;
use a4nn_serve::{
    verify_against_direct, Batcher, BatcherConfig, IoMode, ModelRepo, ServeConfig, ServeRequest,
    ServeResponse, ServeServer,
};
use a4nn_xfel::{generate_dataset, BeamIntensity, XfelConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop phase, requests per second. A committed
/// constant, below the one-connection saturation rate on a 2-core host, so
/// the queue stays bounded and latency reflects service, not backlog.
pub const OPEN_LOOP_RATE: f64 = 400.0;
pub const OPEN_LOOP_REQUESTS: usize = 800;
pub const CLOSED_LOOP_REQUESTS: usize = 2000;
/// Requests each closed-loop connection keeps in flight.
pub const WINDOW: usize = 8;
/// One thread driving one connection: threads plus connections stay within
/// a 2-core host.
pub const LOADGEN_THREADS: usize = 1;
pub const LOADGEN_CONNECTIONS: usize = 1;
pub const BATCH_WORKERS: usize = 1;
/// Distinct XFEL images sent, cycled over the phases.
const IMAGES_PER_CLASS: usize = 64;
/// Keeps the served images apart from the images the models trained on.
const IMAGE_SEED_SALT: u64 = 0x5E4E_C1A5;
const VERIFY_SAMPLES_PER_MODEL: usize = 4;

/// Refuse a load generator whose threads plus connections exceed the
/// host's cores: it would compete with the server it measures.
pub fn check_host() -> Result<(), String> {
    let cores = crate::util::host_cores();
    if LOADGEN_THREADS + LOADGEN_CONNECTIONS > cores {
        return Err(format!(
            "load generator needs {LOADGEN_THREADS} thread(s) + {LOADGEN_CONNECTIONS} \
             connection(s) but the host has {cores} core(s)"
        ));
    }
    Ok(())
}

/// The XFEL images the load generator sends.
pub fn request_images(seed: u64) -> Dataset {
    generate_dataset(
        &XfelConfig::default(),
        BeamIntensity::Medium,
        IMAGES_PER_CLASS,
        seed ^ IMAGE_SEED_SALT,
    )
}

/// One encoded request per image, spread round-robin over the served
/// models so that the load, like a menu's clients, covers the whole front.
pub fn request_frames(ds: &Dataset, model_ids: &[u64]) -> Result<Vec<Vec<u8>>, String> {
    let (images, _) = ds.as_tensor();
    let stride = ds.sample_stride();
    (0..ds.len())
        .map(|i| {
            encode(&ServeRequest::Classify {
                model_id: Some(model_ids[i % model_ids.len()]),
                channels: ds.channels,
                height: ds.height,
                width: ds.width,
                pixels: images.data()[i * stride..(i + 1) * stride].to_vec(),
            })
            .map_err(|e| format!("encoding request: {e}"))
        })
        .collect()
}

/// One client connection speaking the serve protocol with requests
/// pipelined: replies arrive in request order.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
    bytes_in: u64,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let mut conn = Conn {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0; 64 * 1024],
            bytes_in: 0,
        };
        let hello = encode(&ServeRequest::Hello {
            version: PROTOCOL_VERSION,
        })
        .map_err(|e| format!("encoding hello: {e}"))?;
        conn.send(&hello)?;
        match conn.recv_blocking()? {
            ServeResponse::Welcome { .. } => Ok(conn),
            other => Err(format!("handshake answered {other:?}")),
        }
    }

    /// The served models' ids, from the server's menu.
    fn model_ids(&mut self) -> Result<Vec<u64>, String> {
        let frame = encode(&ServeRequest::Models).map_err(|e| format!("encoding: {e}"))?;
        self.send(&frame)?;
        match self.recv_blocking()? {
            ServeResponse::Models(infos) if !infos.is_empty() => {
                Ok(infos.iter().map(|m| m.model_id).collect())
            }
            other => Err(format!("menu request answered {other:?}")),
        }
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("sending request: {e}"))
    }

    /// The next reply if one is complete or arrives now; never blocks.
    fn try_recv(&mut self) -> Result<Option<ServeResponse>, String> {
        self.stream
            .set_nonblocking(true)
            .map_err(|e| format!("socket mode: {e}"))?;
        let out = self.recv_inner(false);
        self.stream
            .set_nonblocking(false)
            .map_err(|e| format!("socket mode: {e}"))?;
        out
    }

    fn recv_blocking(&mut self) -> Result<ServeResponse, String> {
        self.recv_inner(true)?
            .ok_or_else(|| "connection yielded no reply".to_string())
    }

    fn recv_inner(&mut self, block: bool) -> Result<Option<ServeResponse>, String> {
        loop {
            if let Some(msg) = self
                .decoder
                .next_frame::<ServeResponse>()
                .map_err(|e| format!("decoding reply: {e}"))?
            {
                return Ok(Some(msg));
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.bytes_in += n as u64;
                    self.decoder.push(&self.buf[..n]);
                }
                Err(e) if !block && e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("reading reply: {e}")),
            }
        }
    }
}

fn answered(resp: &ServeResponse) -> bool {
    matches!(resp, ServeResponse::Classified { .. })
}

/// Open loop: request `i` is due at `i / rate` after the phase starts and
/// is timed from then, so a stall charges every request queued behind it.
/// Returns (latencies in ms with failures as infinity, lateness in ms).
fn open_loop(conn: &mut Conn, frames: &[Vec<u8>]) -> Result<(Vec<f64>, Vec<f64>), String> {
    let due = |i: usize| Duration::from_secs_f64(i as f64 / OPEN_LOOP_RATE);
    let start = Instant::now();
    let (mut sent, mut received) = (0usize, 0usize);
    let mut latency = Vec::with_capacity(OPEN_LOOP_REQUESTS);
    let mut late = Vec::with_capacity(OPEN_LOOP_REQUESTS);
    while received < OPEN_LOOP_REQUESTS {
        let now = start.elapsed();
        if sent < OPEN_LOOP_REQUESTS && now >= due(sent) {
            late.push((now - due(sent)).as_secs_f64() * 1e3);
            conn.send(&frames[sent % frames.len()])?;
            sent += 1;
            continue;
        }
        match conn.try_recv()? {
            Some(resp) => {
                let ms = (start.elapsed() - due(received)).as_secs_f64() * 1e3;
                latency.push(if answered(&resp) { ms } else { f64::INFINITY });
                received += 1;
            }
            None => {
                let idle = if sent < OPEN_LOOP_REQUESTS {
                    due(sent).saturating_sub(start.elapsed())
                } else {
                    Duration::MAX
                };
                std::thread::sleep(idle.min(Duration::from_micros(100)));
            }
        }
    }
    Ok((latency, late))
}

/// Closed loop: keep [`WINDOW`] requests in flight until
/// [`CLOSED_LOOP_REQUESTS`] are answered. Returns (elapsed seconds,
/// answered count).
fn closed_loop(conn: &mut Conn, frames: &[Vec<u8>]) -> Result<(f64, usize), String> {
    let start = Instant::now();
    let mut sent = 0usize;
    let mut ok = 0usize;
    while sent < WINDOW.min(CLOSED_LOOP_REQUESTS) {
        conn.send(&frames[sent % frames.len()])?;
        sent += 1;
    }
    for _ in 0..CLOSED_LOOP_REQUESTS {
        let resp = conn.recv_blocking()?;
        ok += usize::from(answered(&resp));
        if sent < CLOSED_LOOP_REQUESTS {
            conn.send(&frames[sent % frames.len()])?;
            sent += 1;
        }
    }
    Ok((start.elapsed().as_secs_f64(), ok))
}

/// Median of a fixed-bucket histogram, interpolated linearly inside the
/// bucket that holds it.
pub fn histogram_p50(h: &Histogram) -> f64 {
    let total = h.count();
    if total == 0 {
        return f64::NAN;
    }
    let target = total as f64 / 2.0;
    let mut seen = 0.0;
    let bounds = h.bounds();
    for (i, &c) in h.bucket_counts().iter().enumerate() {
        let next = seen + c as f64;
        if next >= target && c > 0 {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] as f64 };
            let hi = bounds
                .get(i)
                .map_or(h.max().unwrap_or(0) as f64, |&b| b as f64);
            return lo + (hi - lo) * (target - seen) / c as f64;
        }
        seen = next;
    }
    f64::NAN
}

fn server_config(metrics_out: &Path) -> ServeConfig {
    ServeConfig {
        batcher: BatcherConfig {
            workers: BATCH_WORKERS,
            ..BatcherConfig::default()
        },
        io: IoMode::Reactor,
        // The verifier ends its session with Goodbye, which the reactor
        // closes only at the idle deadline; keep that wait short.
        idle_timeout: Duration::from_millis(500),
        metrics_out: Some(metrics_out.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// One repetition against the commons in `commons`; scratch files go to
/// `out`.
pub fn rep(
    seed: u64,
    commons: &Path,
    out: &Path,
    tracer: Option<&'static Tracer>,
) -> Result<Report, String> {
    check_host()?;
    let t_gen = Instant::now();
    let images = request_images(seed);
    let datagen_s = t_gen.elapsed().as_secs_f64();
    let metrics_path = out.join("serve_metrics.json");

    let t0 = Instant::now();
    let repo = ModelRepo::load(commons).map_err(|e| format!("loading model repo: {e}"))?;
    let repo_load_s = t0.elapsed().as_secs_f64();
    let server = ServeServer::bind(
        "127.0.0.1:0",
        repo,
        server_config(&metrics_path),
        Arc::new(MetricsRegistry::new()),
    )
    .map_err(|e| format!("binding server: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("server address: {e}"))?
        .to_string();
    // Two sessions: the load connection, then the verifier's.
    let handle = std::thread::spawn(move || server.run(2));
    let mut conn = Conn::connect(&addr)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let frames = request_frames(&images, &conn.model_ids()?)?;

    let phases = (|| -> Result<_, String> {
        let (latency, late) = open_loop(&mut conn, &frames)?;
        let (closed_s, closed_ok) = closed_loop(&mut conn, &frames)?;
        Ok((latency, late, closed_s, closed_ok))
    })();
    let bytes_in = conn.bytes_in;
    // Closing the socket ends the session at once; a Goodbye frame would
    // leave the reactor holding the connection until its idle deadline.
    drop(conn);
    let verified = phases.as_ref().ok().map(|_| {
        verify_against_direct(
            commons,
            &addr,
            VERIFY_SAMPLES_PER_MODEL,
            images.height,
            images.width,
            seed,
        )
    });
    let joined = handle.join();
    let (latency, late, closed_s, closed_ok) = phases?;
    match joined {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("server failed: {e}")),
        Err(_) => return Err("server thread panicked".into()),
    }
    let verified = match verified {
        Some(Ok(n)) => Some(n),
        Some(Err(e)) => {
            eprintln!("a4nnbench: serve reply differs from direct evaluation: {e}");
            None
        }
        None => None,
    };

    let open_failed = latency.iter().filter(|l| l.is_infinite()).count();
    let closed_failed = CLOSED_LOOP_REQUESTS - closed_ok;
    let mut report = Report::default();
    report.num("setup_s", setup_s);
    report.num("wall_s", closed_s);
    report.num("rate_per_s", closed_ok as f64 / closed_s);
    report.num("latency_ms", median(&latency));
    report.num(
        "requests_attempted",
        (OPEN_LOOP_REQUESTS + CLOSED_LOOP_REQUESTS) as f64,
    );
    report.num("requests_failed", (open_failed + closed_failed) as f64);
    report.num("check_failed", f64::from(u8::from(verified.is_none())));
    report.num("verified_replies", verified.unwrap_or(0) as f64);

    if let Some(t) = tracer {
        let exported = std::fs::read(&metrics_path)
            .map_err(|e| format!("reading {}: {e}", metrics_path.display()))?;
        let snap = MetricsSnapshot::from_json(&exported)
            .map_err(|e| format!("parsing server metrics: {e}"))?;
        let hist = |name| snap.histogram(name).cloned();
        t.add("xfel.datagen_s", datagen_s);
        let t_load = Instant::now();
        DataCommons::load_dir(commons).map_err(|e| format!("loading commons: {e}"))?;
        let store = CheckpointStore::load_dir(&commons.join("checkpoints"))
            .map_err(|e| format!("loading checkpoints: {e}"))?;
        t.add("lineage.load_s", t_load.elapsed().as_secs_f64());
        t.add("lineage.checkpoints_loaded", store.len() as f64);
        t.add("serve.repo_load_s", repo_load_s);
        if let Some(h) = hist(names::SERVE_BATCH_SIZE) {
            t.add("serve.batch_size_mean", h.mean().unwrap_or(f64::NAN));
        }
        if let Some(h) = hist(names::SERVE_QUEUE_WAIT_US) {
            t.add("serve.queue_wait_us_p50", histogram_p50(&h));
        }
        if let Some(h) = hist(names::SERVE_EVAL_US) {
            t.add("serve.eval_us_p50", histogram_p50(&h));
        }
        let requests = OPEN_LOOP_REQUESTS + CLOSED_LOOP_REQUESTS;
        let sent_bytes: usize = (0..requests).map(|i| frames[i % frames.len()].len()).sum();
        t.add(
            "net.bytes_per_req",
            (sent_bytes as f64 + bytes_in as f64) / requests as f64,
        );
        t.add("loadgen.sent", requests as f64);
        t.add("loadgen.late_ms_p99", quantile(&late, 0.99));
        let (pct, value) = supported_tail(&latency);
        t.add("loadgen.latency_tail_pct", pct);
        t.add("loadgen.latency_tail_ms", value);
        t.add("loadgen.latency_tail_samples", latency.len() as f64);
        let client = unloaded_client_p50(commons, &frames, out)?;
        let inproc = inproc_p50(commons, &frames)?;
        t.add("serve.inproc_us_p50", inproc);
        t.add("net.wire_us_p50", client - inproc);
    }
    Ok(report)
}

const PROBE_REQUESTS: usize = 400;

/// Median latency of one request at a time through a fresh server on the
/// socket: the unloaded client's view.
fn unloaded_client_p50(commons: &Path, frames: &[Vec<u8>], out: &Path) -> Result<f64, String> {
    let repo = ModelRepo::load(commons).map_err(|e| format!("loading model repo: {e}"))?;
    let server = ServeServer::bind(
        "127.0.0.1:0",
        repo,
        server_config(&out.join("probe_metrics.json")),
        Arc::new(MetricsRegistry::new()),
    )
    .map_err(|e| format!("binding server: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("server address: {e}"))?
        .to_string();
    let handle = std::thread::spawn(move || server.run(1));
    let mut conn = Conn::connect(&addr)?;
    let mut us = Vec::with_capacity(PROBE_REQUESTS);
    for i in 0..PROBE_REQUESTS {
        let t = Instant::now();
        conn.send(&frames[i % frames.len()])?;
        conn.recv_blocking()?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(conn);
    handle
        .join()
        .map_err(|_| "probe server panicked".to_string())?
        .map_err(|e| format!("probe server failed: {e}"))?;
    Ok(median(&us))
}

/// Median latency of `Batcher::classify` in process: the batcher and the
/// forward pass without the socket or the wire codec.
fn inproc_p50(commons: &Path, frames: &[Vec<u8>]) -> Result<f64, String> {
    let repo = ModelRepo::load(commons).map_err(|e| format!("loading model repo: {e}"))?;
    let batcher = Batcher::start(
        repo,
        BatcherConfig {
            workers: BATCH_WORKERS,
            ..BatcherConfig::default()
        },
        Arc::new(MetricsRegistry::new()),
    )
    .map_err(|e| format!("starting batcher: {e}"))?;
    let mut us = Vec::with_capacity(PROBE_REQUESTS);
    for i in 0..PROBE_REQUESTS {
        let frame = &frames[i % frames.len()];
        let mut decoder = FrameDecoder::new();
        decoder.push(frame);
        let Ok(Some(ServeRequest::Classify {
            model_id,
            channels,
            height,
            width,
            pixels,
        })) = decoder.next_frame::<ServeRequest>()
        else {
            return Err("request frame does not decode".into());
        };
        let t = Instant::now();
        batcher
            .classify(model_id, channels, height, width, pixels)
            .map_err(|e| format!("in-process classify: {e}"))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}
