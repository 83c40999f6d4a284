//! A background-thread TCP/HTTP listener serving live Prometheus
//! scrapes.
//!
//! Deliberately minimal — `std::net` only, one request per connection,
//! any `GET` answered with the full exposition — with bound-address
//! reporting, read timeouts and clean shutdown via a self-connect.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::obs::progress::Observer;
use crate::obs::prometheus::encode_prometheus;
use crate::{Recorder, Snapshot};

/// How long a scraper may dawdle sending its request or draining the
/// response before the connection is dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A listener failed to bind, with the requested address attached.
///
/// A bare `io::Error` from a bind reads as "Address already in use (os
/// error 98)" with no hint *which* address collided — fatal in CI logs
/// where several processes start listeners together. This error names
/// the address; use [`is_addr_in_use`](BindError::is_addr_in_use) to
/// branch on the collision case (e.g. retry on an ephemeral port).
#[derive(Debug)]
pub struct BindError {
    addr: String,
    source: io::Error,
}

impl BindError {
    /// Wraps `source` with the address the bind was attempted on.
    fn new(addr: impl Into<String>, source: io::Error) -> Self {
        BindError {
            addr: addr.into(),
            source,
        }
    }

    /// The address the failed bind was attempted on, as requested
    /// (port 0 un-resolved).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the failure was an address-in-use collision — the case
    /// a caller can fix by picking another port (or `:0`).
    pub fn is_addr_in_use(&self) -> bool {
        self.source.kind() == io::ErrorKind::AddrInUse
    }
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_addr_in_use() {
            write!(
                f,
                "cannot bind {}: address already in use (pick another port, or 0 for ephemeral)",
                self.addr
            )
        } else {
            write!(f, "cannot bind {}: {}", self.addr, self.source)
        }
    }
}

impl std::error::Error for BindError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A live metrics endpoint: binds a local TCP listener and serves
/// Prometheus text-format scrapes of a [`Recorder`] (plus the live
/// gauges of an [`Observer`]) from a background thread until dropped.
///
/// ```no_run
/// use accu_telemetry::{obs::MetricsServer, obs::Observer, Recorder};
/// let rec = Recorder::enabled();
/// let server =
///     MetricsServer::bind("127.0.0.1:0", rec.clone(), "fig2", Observer::disabled()).unwrap();
/// println!("scrape http://{}/metrics", server.addr());
/// // … run the experiment; drop the server to stop serving.
/// ```
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, port 0 for ephemeral) and
    /// starts serving scrapes of `recorder` labelled `label`. The
    /// observer's live gauges are merged into every scrape; pass
    /// [`Observer::disabled`] when progress tracking is off.
    ///
    /// `--metrics-addr 127.0.0.1:0` style ephemeral binds are
    /// supported: [`addr`](MetricsServer::addr) reports the resolved
    /// port, which callers should log for scrapers (and CI) to find.
    ///
    /// # Errors
    ///
    /// Returns a [`BindError`] naming the requested address (address in
    /// use, permission, parse).
    pub fn bind(
        addr: &str,
        recorder: Recorder,
        label: impl Into<String>,
        observer: Observer,
    ) -> Result<Self, BindError> {
        let requested = addr;
        let listener = TcpListener::bind(addr).map_err(|e| BindError::new(requested, e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| BindError::new(requested, e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let label = label.into();
        let handle = std::thread::Builder::new()
            .name("accu-obs-metrics".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Serve inline: scrapes are tiny and sequential
                    // scrapers (Prometheus) open one connection at a
                    // time.
                    let body = render_scrape(&recorder, &label, &observer);
                    let _ = serve_one(stream, &body);
                }
            })
            .map_err(|e| BindError::new(requested, e))?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop so the thread sees the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Builds the scrape body: the recorder's snapshot (empty when
/// disabled) with the observer's live gauges appended.
fn render_scrape(recorder: &Recorder, label: &str, observer: &Observer) -> String {
    let mut snap = recorder.snapshot(label).unwrap_or_else(|| Snapshot {
        label: label.to_string(),
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
    });
    snap.gauges.extend(observer.gauge_snapshots());
    encode_prometheus(&snap)
}

/// Reads (and discards) the request head, then writes one HTTP/1.1
/// response carrying `body` and closes.
fn serve_one(mut stream: TcpStream, body: &str) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Drain the request head; stop at the blank line or a small cap —
    // every request gets the same response, so parsing would be
    // ceremony.
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => break, // timeout or reset: answer anyway
        }
    }
    let response = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::prometheus::validate_prometheus;

    /// One full client scrape against `addr`; returns (status line,
    /// body).
    fn scrape(addr: SocketAddr) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let status = head.lines().next().unwrap().to_string();
        (status, body.to_string())
    }

    #[test]
    fn serves_valid_scrapes_until_dropped() {
        let rec = Recorder::enabled();
        rec.counter("sim.requests").add(42);
        rec.histogram("sim.select_ns").record(100);
        let server =
            MetricsServer::bind("127.0.0.1:0", rec.clone(), "test", Observer::disabled()).unwrap();
        let addr = server.addr();
        let (status, body) = scrape(addr);
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("accu_sim_requests{run=\"test\"} 42"));
        validate_prometheus(&body).unwrap();
        // A scrape mid-run sees updated values.
        rec.counter("sim.requests").add(8);
        let (_, body) = scrape(addr);
        assert!(body.contains("accu_sim_requests{run=\"test\"} 50"));
        drop(server);
        // The port stops answering once the server is gone (either
        // refused outright or accepted by nothing and reset).
        let dead = TcpStream::connect(addr)
            .map(|mut s| {
                let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                let mut out = String::new();
                s.read_to_string(&mut out).unwrap_or(0) == 0
            })
            .unwrap_or(true);
        assert!(dead, "server must stop serving after drop");
    }

    #[test]
    fn merges_observer_gauges_into_the_scrape() {
        let rec = Recorder::enabled();
        rec.counter("n").incr();
        let obs = Observer::new(None, true);
        obs.record(
            &crate::Event::info("run.begin")
                .arg("networks", 2u64)
                .arg("episodes", 4u64),
        );
        obs.episode_done(1);
        let server = MetricsServer::bind("127.0.0.1:0", rec, "merge", obs.clone()).unwrap();
        let (_, body) = scrape(server.addr());
        assert!(body.contains("accu_obs_episodes_done{run=\"merge\"} 1"));
        assert!(body.contains("accu_obs_episodes_total{run=\"merge\"} 4"));
        validate_prometheus(&body).unwrap();
    }

    #[test]
    fn bind_collision_yields_typed_error_naming_the_address() {
        let first = MetricsServer::bind(
            "127.0.0.1:0",
            Recorder::disabled(),
            "first",
            Observer::disabled(),
        )
        .unwrap();
        let taken = first.addr().to_string();
        let err = MetricsServer::bind(&taken, Recorder::disabled(), "second", Observer::disabled())
            .expect_err("rebinding a live port must fail");
        assert!(err.is_addr_in_use(), "kind: {err}");
        assert_eq!(err.addr(), taken);
        let message = err.to_string();
        assert!(
            message.contains(&taken) && message.contains("in use"),
            "message must name the address: {message}"
        );
        // The error chains to the OS-level cause.
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn ephemeral_bind_resolves_port_zero() {
        let server = MetricsServer::bind(
            "127.0.0.1:0",
            Recorder::disabled(),
            "ephemeral",
            Observer::disabled(),
        )
        .unwrap();
        assert_ne!(server.addr().port(), 0, "port 0 resolves at bind time");
    }

    #[test]
    fn disabled_recorder_serves_observer_only_scrape() {
        let server = MetricsServer::bind(
            "127.0.0.1:0",
            Recorder::disabled(),
            "empty",
            Observer::new(None, true),
        )
        .unwrap();
        let (status, body) = scrape(server.addr());
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("accu_obs_episodes_done"));
        validate_prometheus(&body).unwrap();
    }
}
