//! Hand-rolled HTTP/1.1 layer over `std::net` (consistent with the
//! offline-build policy: no dependencies), shared by the read-only run
//! observer and the read-write `sixgen serve` job API.
//!
//! The module has two floors:
//!
//! * **Transport** — [`HttpServer`] binds a `TcpListener` and serves any
//!   [`HttpHandler`]. A dedicated accept thread blocks in `accept()` and
//!   feeds a bounded connection queue drained by a small pool of handler
//!   threads, so a connection is read as soon as it arrives, and one
//!   wedged or slow-loris client costs at most one pool slot — never the
//!   whole server (`/healthz` keeps answering while a stalled connection
//!   is held open). Shutdown sets the stop flag under the queue lock,
//!   so no idle worker misses it, and wakes the accept thread with a
//!   connection of its own. A panicking handler or chunk producer costs
//!   only its own connection (a `500` or a truncated stream), never a
//!   pool thread. Every connection gets an end-to-end read deadline on
//!   top of the per-read socket timeout. Requests are parsed
//!   incrementally (each buffer byte is scanned once, and GET-family
//!   requests are answered from the request line alone); responses are
//!   either [`Body::Full`] (`Content-Length`) or [`Body::Chunked`]
//!   (`Transfer-Encoding: chunked`), the latter driving incremental
//!   target streaming.
//! * **Observer** — [`Observer`] serves the classic read-only views
//!   from a set of [`ObserverSources`]:
//!   * `GET /healthz` — `200 text/plain "ok"` while the observer lives.
//!   * `GET /metrics` — the Prometheus text exposition of the registry.
//!   * `GET /status` — a JSON snapshot: uptime, fleet aggregate
//!     (rounds, growths, budget burn, rolling throughput, ETA),
//!     per-shard progress, event-bus accounting, trace-sink accounting,
//!     and checkpoint age.
//!
//!   The same routes are exported as [`observer_response`] so the job
//!   layer can mount them both globally and per job
//!   (`GET /jobs/<id>/status`).
//!
//! The observer is strictly one-way glass: it holds shared handles to
//! the run's [`MetricsRegistry`], [`EventBus`], [`TraceSink`], and
//! checkpoint path, and serves snapshots of them; it never mutates run
//! state, and the run never blocks on it.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::events::EventBus;
use crate::trace::TraceSink;
use crate::{escape_json, MetricsRegistry};

/// Cap on request-line + header bytes read before answering `431`;
/// enough for any API request's headers (bodies have their own cap).
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Cap on a request body (`Content-Length`); seed-set uploads are the
/// largest legitimate body, and 64 MiB holds tens of millions of
/// addresses.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Per-connection socket read/write timeout: the longest one blocking
/// socket call may stall a handler thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// End-to-end deadline for reading one request (line, headers, and
/// body). A slow-loris client dribbling bytes keeps a connection alive
/// only this long, no matter how steadily it feeds the per-read timeout.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Pause after a failed `accept()` (e.g. EMFILE: out of descriptors)
/// before retrying, so a persistent error cannot spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(15);

/// How long shutdown's wake-up connection may take before the accept
/// thread is left detached instead of joined.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Handler threads for the read-only observer (and the default for
/// [`HttpServer::bind`] callers that pass `0`): enough that a couple of
/// wedged clients cannot starve `/healthz`.
const DEFAULT_HANDLER_THREADS: usize = 4;

/// Pending-connection cap; beyond it the accept thread answers `503`
/// immediately instead of queueing unbounded work.
const QUEUE_CAP: usize = 128;

/// Cap on per-shard entries inlined into `/status`; the aggregate block
/// always covers every shard, and `shards_omitted` counts the tail.
const MAX_STATUS_SHARDS: usize = 64;

// ---------------------------------------------------------------------------
// Request / response model
// ---------------------------------------------------------------------------

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET`, `POST`, ...), verbatim.
    pub method: String,
    /// The request path with any query string stripped.
    pub path: String,
    /// The raw query string (without the `?`), empty when absent.
    pub query: String,
    /// The request body (empty for bodiless methods).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of query parameter `name`, if present (`?a=1&b=2`
    /// style; no percent-decoding — the API's parameters are all
    /// numbers and short identifiers).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (key == name).then_some(value)
        })
    }
}

/// A streaming-response writer handed to [`Body::Chunked`] closures.
/// Each [`chunk`](ChunkWriter::chunk) call writes one HTTP/1.1 chunk
/// frame and flushes it, so clients see data as soon as the producer
/// commits it.
#[derive(Debug)]
pub struct ChunkWriter<'a> {
    stream: &'a mut TcpStream,
    stop: &'a AtomicBool,
}

impl ChunkWriter<'_> {
    /// Writes `data` as one chunk frame and flushes. Empty input is a
    /// no-op (a zero-length frame would terminate the stream). Errors
    /// when the client is gone, writes stall past the socket timeout,
    /// or the server is shutting down — producers should stop on the
    /// first error.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if self.aborted() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "server shutting down",
            ));
        }
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// True once the server is shutting down; long-lived producers
    /// (target streams) should poll this between waits and bail out.
    pub fn aborted(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// A chunked-response producer: called once with the connection's
/// [`ChunkWriter`] after the response header is on the wire.
pub type ChunkFn = Box<dyn FnOnce(&mut ChunkWriter<'_>) -> std::io::Result<()> + Send>;

/// A response body: either a complete string (`Content-Length`) or a
/// streaming producer (`Transfer-Encoding: chunked`).
pub enum Body {
    /// A complete body, sent with `Content-Length`.
    Full(String),
    /// A streaming body; the closure runs on the connection's handler
    /// thread and each chunk is flushed as it is written.
    Chunked(ChunkFn),
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::Full(text) => f.debug_tuple("Full").field(&text.len()).finish(),
            Body::Chunked(_) => f.debug_struct("Chunked").finish_non_exhaustive(),
        }
    }
}

/// One HTTP response.
#[derive(Debug)]
pub struct Response {
    /// The status line tail, e.g. `200 OK`.
    pub status: &'static str,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The body.
    pub body: Body,
}

impl Response {
    /// A plain-text response with the given status.
    pub fn text(status: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Body::Full(body.into()),
        }
    }

    /// `200 OK` with a plain-text body.
    pub fn ok_text(body: impl Into<String>) -> Response {
        Response::text("200 OK", body)
    }

    /// A JSON response with the given status.
    pub fn json(status: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json; charset=utf-8",
            body: Body::Full(body.into()),
        }
    }

    /// `404 Not Found`.
    pub fn not_found() -> Response {
        Response::text("404 Not Found", "not found\n")
    }

    /// `405 Method Not Allowed`.
    pub fn method_not_allowed() -> Response {
        Response::text("405 Method Not Allowed", "method not allowed\n")
    }

    /// `400 Bad Request` with a diagnostic body.
    pub fn bad_request(message: impl Into<String>) -> Response {
        Response::text("400 Bad Request", message.into())
    }

    /// A `200 OK` chunked streaming response; `produce` runs on the
    /// connection's handler thread and writes frames via the
    /// [`ChunkWriter`].
    pub fn chunked(
        content_type: &'static str,
        produce: impl FnOnce(&mut ChunkWriter<'_>) -> std::io::Result<()> + Send + 'static,
    ) -> Response {
        Response {
            status: "200 OK",
            content_type,
            body: Body::Chunked(Box::new(produce)),
        }
    }
}

/// A request handler served by [`HttpServer`]. Handlers run on pool
/// threads and must be shareable; long-running work belongs in
/// [`Body::Chunked`] producers, which occupy only their own
/// connection's pool slot.
pub trait HttpHandler: Send + Sync {
    /// Maps one request to its response.
    fn handle(&self, request: &Request) -> Response;
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Accept queue shared between the accept thread and the handler pool.
/// The server's stop flag is set and notified under `pending`'s lock,
/// and both threads read it under that lock, so neither a worker about
/// to wait nor the accept thread just woken can miss it.
struct ConnQueue {
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// A running HTTP server: one accept thread feeding a bounded handler
/// pool. Dropping it (or calling [`shutdown`](HttpServer::shutdown))
/// stops the accept loop, aborts in-flight chunked streams, and joins
/// every thread.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:9106`, port 0 for ephemeral) and
    /// starts serving `handler` on `threads` pool threads (`0` uses the
    /// default small pool).
    pub fn bind(
        addr: &str,
        handler: Arc<dyn HttpHandler>,
        threads: usize,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let threads = if threads == 0 {
            DEFAULT_HANDLER_THREADS
        } else {
            threads.min(16)
        };
        // Built before any thread starts, so a failed spawn drops it and
        // stops and joins the threads already running.
        let mut server = HttpServer {
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            queue: Arc::new(ConnQueue {
                pending: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            }),
            accept: None,
            workers: Vec::with_capacity(threads),
        };
        for i in 0..threads {
            let queue = Arc::clone(&server.queue);
            let stop = Arc::clone(&server.stop);
            let handler = Arc::clone(&handler);
            server.workers.push(
                std::thread::Builder::new()
                    .name(format!("sixgen-http-{i}"))
                    .spawn(move || worker_loop(&queue, &*handler, &stop))?,
            );
        }
        let queue = Arc::clone(&server.queue);
        let stop = Arc::clone(&server.stop);
        server.accept = Some(
            std::thread::Builder::new()
                .name("sixgen-http-accept".into())
                .spawn(move || accept_loop(listener, &queue, &stop))?,
        );
        Ok(server)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, aborts in-flight chunked streams, and joins
    /// every thread. Connections already queued are still answered. An
    /// accept thread that cannot be woken within a short timeout is
    /// left detached rather than hang the caller.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            // The queue holds no invariant a panic could break, so a
            // poisoned lock is still safe to use here (and `Drop` must
            // not panic).
            let _pending = self
                .queue
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.stop.store(true, Ordering::Relaxed);
            self.queue.ready.notify_all();
        }
        if let Some(handle) = self.accept.take() {
            // Without a wake-up the accept thread would block until the
            // next client connects; joining it then could hang.
            if wake_acceptor(self.addr) {
                let _ = handle.join();
            }
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Connects to the server's own port so its accept thread returns from
/// `accept()` and sees the stop flag. An unspecified bind address
/// (`0.0.0.0`, `[::]`) is reached through loopback of the same family.
/// False when the connection fails within [`WAKE_TIMEOUT`].
fn wake_acceptor(addr: SocketAddr) -> bool {
    let mut target = addr;
    if addr.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&target, WAKE_TIMEOUT).is_ok()
}

fn accept_loop(listener: TcpListener, queue: &ConnQueue, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        let mut pending = queue.pending.lock().expect("accept queue poisoned");
        if stop.load(Ordering::Relaxed) {
            // Shutdown's wake-up connection, or a client racing it.
            return;
        }
        match accepted {
            Ok((stream, _)) if pending.len() >= QUEUE_CAP => {
                drop(pending);
                reject_overloaded(stream);
            }
            Ok((stream, _)) => {
                pending.push_back(stream);
                drop(pending);
                queue.ready.notify_one();
            }
            Err(_) => {
                drop(pending);
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

/// Best-effort `503` for connections past the queue cap: the socket is
/// fresh, so the write lands in empty kernel buffers and cannot stall
/// the accept thread meaningfully.
fn reject_overloaded(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(
        b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\n\
          Content-Length: 11\r\nConnection: close\r\n\r\noverloaded\n",
    );
}

fn worker_loop(queue: &ConnQueue, handler: &dyn HttpHandler, stop: &AtomicBool) {
    loop {
        let stream = {
            let mut pending = queue.pending.lock().expect("accept queue poisoned");
            loop {
                if let Some(stream) = pending.pop_front() {
                    break stream;
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                pending = queue.ready.wait(pending).expect("accept queue poisoned");
            }
        };
        handle_connection(stream, handler, stop);
    }
}

/// Reads one request and writes one response. All IO errors are
/// swallowed, and panics are contained: a broken client connection or a
/// panicking handler must never disturb the server (or an observed run),
/// nor cost it a pool thread.
fn handle_connection(mut stream: TcpStream, handler: &dyn HttpHandler, stop: &AtomicBool) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(request) => {
            catch_unwind(AssertUnwindSafe(|| handler.handle(&request))).unwrap_or_else(|_| {
                Response::text("500 Internal Server Error", "internal server error\n")
            })
        }
        Err(error) => match error.response() {
            Some((status, message)) => Response::text(status, message),
            None => return,
        },
    };
    // A chunk producer that panics mid-stream ends its connection
    // without the terminal frame, so the client sees a truncated stream.
    let _ = catch_unwind(AssertUnwindSafe(|| {
        write_response(&mut stream, response, stop)
    }));
}

fn write_response(
    stream: &mut TcpStream,
    response: Response,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    match response.body {
        Body::Full(body) => {
            let header = format!(
                "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n",
                response.status,
                response.content_type,
                body.len()
            );
            stream.write_all(header.as_bytes())?;
            stream.write_all(body.as_bytes())?;
            stream.flush()
        }
        Body::Chunked(produce) => {
            let header = format!(
                "HTTP/1.1 {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\n\
                 Connection: close\r\n\r\n",
                response.status, response.content_type
            );
            stream.write_all(header.as_bytes())?;
            let mut writer = ChunkWriter { stream, stop };
            produce(&mut writer)?;
            stream.write_all(b"0\r\n\r\n")?;
            stream.flush()
        }
    }
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

/// Why a request could not be parsed.
enum RequestError {
    /// The client closed (or never wrote); close silently.
    Disconnect,
    /// Malformed request; answer `400`.
    BadRequest(&'static str),
    /// Request line + headers exceeded [`MAX_REQUEST_BYTES`].
    HeadersTooLarge,
    /// `Content-Length` exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The end-to-end read deadline elapsed mid-request.
    Timeout,
}

impl RequestError {
    /// The `(status, body)` to answer with, or `None` for a silent
    /// close.
    fn response(&self) -> Option<(&'static str, &'static str)> {
        match self {
            RequestError::Disconnect => None,
            RequestError::BadRequest(message) => Some(("400 Bad Request", message)),
            RequestError::HeadersTooLarge => Some((
                "431 Request Header Fields Too Large",
                "request headers too large\n",
            )),
            RequestError::BodyTooLarge => {
                Some(("413 Content Too Large", "request body too large\n"))
            }
            RequestError::Timeout => Some(("408 Request Timeout", "request read timed out\n")),
        }
    }
}

/// Finds `needle` in `haystack`, scanning no byte before
/// `from - needle.len() + 1` — callers pass the previous buffer length
/// as `from`, so across a whole read loop every byte is scanned once
/// (plus a `needle`-sized overlap per read for matches spanning a read
/// boundary), instead of the old full rescan per chunk.
fn find_from(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    let start = from.saturating_sub(needle.len() - 1);
    if start >= haystack.len() {
        return None;
    }
    haystack[start..]
        .windows(needle.len())
        .position(|window| window == needle)
        .map(|position| position + start)
}

/// Reads until `buf` grows, honouring the end-to-end `deadline` on top
/// of the per-read socket timeout.
fn read_more(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    deadline: Instant,
) -> Result<(), RequestError> {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(RequestError::Timeout);
        }
        let _ = stream.set_read_timeout(Some((deadline - now).min(IO_TIMEOUT)));
        let mut chunk = [0u8; 8 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(RequestError::Disconnect),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => return Err(RequestError::Disconnect),
        }
    }
}

/// Parses one request from the stream.
///
/// The request line is found by scanning incrementally for the first
/// CRLF; bodiless methods (GET, HEAD, DELETE, ...) are returned at that
/// point without waiting for end-of-headers, so the classic observer
/// round-trip costs one scan of exactly the bytes received. Bodied
/// methods (POST/PUT/PATCH) read to the header terminator (again
/// incrementally), honour `Content-Length` up to [`MAX_BODY_BYTES`],
/// and return the body.
fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf: Vec<u8> = Vec::with_capacity(512);

    let mut scanned = 0;
    let line_end = loop {
        if let Some(position) = find_from(&buf, scanned, b"\r\n") {
            break position;
        }
        scanned = buf.len();
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err(RequestError::HeadersTooLarge);
        }
        read_more(stream, &mut buf, deadline)?;
    };
    let line = std::str::from_utf8(&buf[..line_end])
        .map_err(|_| RequestError::BadRequest("request line is not UTF-8\n"))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(RequestError::BadRequest("empty request line\n"))?
        .to_owned();
    let target = parts
        .next()
        .ok_or(RequestError::BadRequest("missing request target\n"))?;
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_owned(), query.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    if !matches!(method.as_str(), "POST" | "PUT" | "PATCH") {
        return Ok(Request {
            method,
            path,
            query,
            body: Vec::new(),
        });
    }

    let mut scanned = line_end;
    let header_end = loop {
        if let Some(position) = find_from(&buf, scanned, b"\r\n\r\n") {
            break position;
        }
        scanned = buf.len();
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err(RequestError::HeadersTooLarge);
        }
        read_more(stream, &mut buf, deadline)?;
    };

    let headers = String::from_utf8_lossy(&buf[line_end..header_end]);
    let mut content_length = 0usize;
    for header in headers.split("\r\n") {
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::BadRequest("bad Content-Length\n"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::BodyTooLarge);
    }
    let body_start = header_end + 4;
    let mut body: Vec<u8> = buf.get(body_start..).unwrap_or(&[]).to_vec();
    while body.len() < content_length {
        read_more(stream, &mut body, deadline)?;
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

// ---------------------------------------------------------------------------
// Observer
// ---------------------------------------------------------------------------

/// Shared run state the observer serves. Every field is optional: absent
/// sources render as `null`/absent in `/status`, and `/metrics` with no
/// registry serves an empty exposition.
#[derive(Debug, Default, Clone)]
pub struct ObserverSources {
    /// Metrics registry for `/metrics` and the `/status` header.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Progress-event bus for the `/status` run/shard blocks.
    pub events: Option<Arc<EventBus>>,
    /// Trace sink for the `/status` trace accounting block.
    pub trace: Option<Arc<TraceSink>>,
    /// Checkpoint path; `/status` reports its age from file mtime.
    pub checkpoint: Option<PathBuf>,
}

/// A running observer: an [`HttpServer`] serving the read-only
/// [`observer_response`] routes. Dropping it (or calling
/// [`shutdown`](Observer::shutdown)) stops the server and joins its
/// threads.
#[derive(Debug)]
pub struct Observer {
    server: HttpServer,
}

struct ObserverHandler {
    sources: ObserverSources,
    started: Instant,
}

impl HttpHandler for ObserverHandler {
    fn handle(&self, request: &Request) -> Response {
        observer_response(request, &self.sources, self.started)
    }
}

impl Observer {
    /// Binds `addr` (e.g. `127.0.0.1:9106`, port 0 for ephemeral) and
    /// starts serving on a small dedicated handler pool.
    pub fn bind(addr: &str, sources: ObserverSources) -> std::io::Result<Observer> {
        let handler = Arc::new(ObserverHandler {
            sources,
            started: Instant::now(),
        });
        let server = HttpServer::bind(addr, handler, DEFAULT_HANDLER_THREADS)?;
        Ok(Observer { server })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Routes one request against a set of [`ObserverSources`]: `/healthz`,
/// `/metrics` (Prometheus), `/status` (JSON), `404` otherwise, `405`
/// for non-GET. `started` anchors the `/status` uptime. Exported so the
/// job layer can mount the same views globally and per job.
pub fn observer_response(
    request: &Request,
    sources: &ObserverSources,
    started: Instant,
) -> Response {
    if request.method != "GET" {
        return Response::method_not_allowed();
    }
    match request.path.as_str() {
        "/healthz" => Response::ok_text("ok\n"),
        "/metrics" => Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: Body::Full(
                sources
                    .metrics
                    .as_deref()
                    .map(MetricsRegistry::to_prometheus)
                    .unwrap_or_default(),
            ),
        },
        "/status" => Response::json("200 OK", status_json(sources, started)),
        _ => Response::not_found(),
    }
}

/// Builds the `/status` JSON document for a set of sources: uptime, the
/// aggregated run block and per-shard progress from the event bus,
/// event/trace accounting, and checkpoint age. Exported so the job
/// layer can embed per-job status documents.
pub fn status_json(sources: &ObserverSources, started: Instant) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!("\"uptime_s\":{:.3}", started.elapsed().as_secs_f64()),
    );

    match &sources.events {
        Some(bus) => {
            let progress = bus.progress();
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"run\":{{\"shards_total\":{},\"shards_done\":{},\"shards_parked\":{},\
                     \"epochs\":{},\"rounds\":{},\"growths\":{},\"live_clusters\":{},\
                     \"budget\":{},\"budget_used\":{},\"budget_remaining\":{},\
                     \"throughput_per_s\":{:.3},\"eta_s\":{}}}",
                    progress.shards.len(),
                    progress.done_shards,
                    progress.parked_shards,
                    progress.epochs,
                    progress.rounds,
                    progress.growths,
                    progress.live_clusters,
                    progress.budget_total,
                    progress.budget_used,
                    progress.budget_remaining(),
                    progress.throughput_per_s,
                    match progress.eta_s {
                        Some(eta) => format!("{eta:.3}"),
                        None => "null".into(),
                    },
                ),
            );
            out.push_str(",\"shards\":[");
            for (i, shard) in progress.shards.iter().take(MAX_STATUS_SHARDS).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!(
                        "{{\"shard\":{},\"seeds\":{},\"rounds\":{},\"growths\":{},\
                         \"live_clusters\":{},\"budget\":{},\"budget_used\":{},\"leased\":{},\
                         \"parked\":{},\"termination\":{}}}",
                        shard.shard,
                        shard.seeds,
                        shard.rounds,
                        shard.growths,
                        shard.live_clusters,
                        shard.budget,
                        shard.budget_used,
                        shard.leased,
                        shard.parked,
                        match shard.termination {
                            Some(label) => format!("\"{}\"", escape_json(label)),
                            None => "null".into(),
                        },
                    ),
                );
            }
            out.push(']');
            let omitted = progress.shards.len().saturating_sub(MAX_STATUS_SHARDS);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"shards_omitted\":{omitted},\
                     \"events\":{{\"published\":{},\"streamed\":{},\"stream_errors\":{}}}",
                    bus.published(),
                    bus.streamed(),
                    bus.stream_errors(),
                ),
            );
        }
        None => out.push_str(",\"run\":null,\"shards\":[],\"shards_omitted\":0,\"events\":null"),
    }

    match &sources.trace {
        Some(sink) => {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"trace\":{{\"recorded\":{},\"streamed\":{},\"stream_errors\":{}}}",
                    sink.recorded(),
                    sink.streamed(),
                    sink.stream_errors(),
                ),
            );
        }
        None => out.push_str(",\"trace\":null"),
    }

    match &sources.checkpoint {
        Some(path) => {
            // Age via `duration_since`, clamped to 0.0 when the mtime is
            // ahead of the clock (NTP step, coarse filesystem
            // timestamps): a just-written checkpoint must read as fresh,
            // not as unknown. `null` only when the file is absent.
            let age_s = std::fs::metadata(path)
                .and_then(|m| m.modified())
                .ok()
                .map(|mtime| {
                    std::time::SystemTime::now()
                        .duration_since(mtime)
                        .map_or(0.0, |age| age.as_secs_f64())
                });
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"checkpoint\":{{\"path\":\"{}\",\"age_s\":{}}}",
                    escape_json(&path.display().to_string()),
                    match age_s {
                        Some(age) => format!("{age:.3}"),
                        None => "null".into(),
                    },
                ),
            );
        }
        None => out.push_str(",\"checkpoint\":null"),
    }

    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{PhaseNanos, ProgressEvent};
    use crate::validate_json;

    /// Minimal test client: one request, full response text.
    fn get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to server");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(request.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    fn body(response: &str) -> &str {
        response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .unwrap_or("")
    }

    fn sample_sources() -> ObserverSources {
        let metrics = MetricsRegistry::shared();
        metrics.counter("engine/runs").add(1);
        let bus = crate::EventBus::shared();
        bus.set_budget_total(1_000);
        bus.publish(ProgressEvent::SessionStart {
            shard: 0,
            seeds: 40,
            budget: 1_000,
            round: 0,
        });
        bus.publish(ProgressEvent::Round {
            shard: 0,
            round: 1,
            live_clusters: 4,
            growths: 1,
            budget_used: 120,
            budget: 1_000,
            phase_ns: PhaseNanos::default(),
        });
        let trace = TraceSink::shared();
        drop(trace.span("engine", "run", crate::SpanId::NONE));
        ObserverSources {
            metrics: Some(metrics),
            events: Some(bus),
            trace: Some(trace),
            checkpoint: None,
        }
    }

    #[test]
    fn serves_healthz_metrics_and_status() {
        let observer =
            Observer::bind("127.0.0.1:0", sample_sources()).expect("bind ephemeral port");
        let addr = observer.local_addr();

        let health = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert_eq!(body(&health), "ok\n");

        let metrics = get(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(
            body(&metrics).contains("sixgen_engine_runs_total 1"),
            "{metrics}"
        );

        let status = get(addr, "GET /status HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
        let doc = body(&status);
        validate_json(doc).unwrap_or_else(|e| panic!("bad /status JSON {doc:?}: {e}"));
        assert!(doc.contains("\"budget_used\":120"), "{doc}");
        assert!(doc.contains("\"shards_total\":1"), "{doc}");
        // The bus and the trace sink keep no records, so they report only
        // what they recorded and streamed.
        assert!(
            doc.contains("\"events\":{\"published\":2,\"streamed\":0,\"stream_errors\":0}"),
            "{doc}"
        );
        assert!(
            doc.contains("\"trace\":{\"recorded\":1,\"streamed\":0,\"stream_errors\":0}"),
            "{doc}"
        );

        observer.shutdown();
    }

    #[test]
    fn rejects_unknown_paths_and_methods() {
        let observer =
            Observer::bind("127.0.0.1:0", ObserverSources::default()).expect("bind observer");
        let addr = observer.local_addr();
        let missing = get(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let post = get(addr, "POST /status HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        // Query strings are ignored, not 404s.
        let query = get(addr, "GET /healthz?x=1 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(query.starts_with("HTTP/1.1 200"), "{query}");
    }

    #[test]
    fn absent_sources_serve_nulls() {
        let observer =
            Observer::bind("127.0.0.1:0", ObserverSources::default()).expect("bind observer");
        let status = get(
            observer.local_addr(),
            "GET /status HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        let doc = body(&status);
        validate_json(doc).expect("valid JSON with absent sources");
        assert!(doc.contains("\"run\":null"), "{doc}");
        assert!(doc.contains("\"trace\":null"), "{doc}");
        assert!(doc.contains("\"checkpoint\":null"), "{doc}");
    }

    #[test]
    fn shutdown_closes_the_port() {
        let observer =
            Observer::bind("127.0.0.1:0", ObserverSources::default()).expect("bind observer");
        let addr = observer.local_addr();
        assert!(get(addr, "GET /healthz HTTP/1.1\r\n\r\n").contains("200"));
        observer.shutdown();
        // After shutdown the listener is gone; a fresh connect must fail
        // (or at minimum not serve the observer protocol).
        assert!(TcpStream::connect(addr).is_err(), "port still open");
    }

    /// The serial-handler regression: with stalled connections held
    /// open, `/healthz` must still answer fast from another pool slot.
    #[test]
    fn healthz_stays_responsive_with_stalled_clients() {
        let observer =
            Observer::bind("127.0.0.1:0", ObserverSources::default()).expect("bind observer");
        let addr = observer.local_addr();
        // Two slow-loris clients: connected, a partial request line
        // written, then silence. Each wedges one handler slot.
        let mut stalled = Vec::new();
        for _ in 0..2 {
            let mut stream = TcpStream::connect(addr).expect("connect stalled client");
            stream.write_all(b"GET /hea").expect("partial write");
            stalled.push(stream);
        }
        // Give the pool a beat to pick both up, so the probe below
        // genuinely contends with them.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let health = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        let elapsed = started.elapsed();
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(
            elapsed < Duration::from_millis(100),
            "healthz took {elapsed:?} with stalled clients"
        );
        drop(stalled);
        observer.shutdown();
    }

    /// The incremental parser must assemble a request dribbled in over
    /// several partial writes.
    #[test]
    fn parses_requests_split_across_partial_writes() {
        let observer =
            Observer::bind("127.0.0.1:0", ObserverSources::default()).expect("bind observer");
        let mut stream = TcpStream::connect(observer.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for part in ["GET /hea", "lthz HTT", "P/1.1\r", "\nHost: x\r\n\r\n"] {
            stream.write_all(part.as_bytes()).expect("partial write");
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert_eq!(body(&response), "ok\n");
    }

    #[test]
    fn oversized_headers_answer_431() {
        let observer =
            Observer::bind("127.0.0.1:0", ObserverSources::default()).expect("bind observer");
        let mut request = String::from("GET /");
        // A request line that never ends, past the header cap.
        request.push_str(&"x".repeat(MAX_REQUEST_BYTES + 1024));
        let mut stream = TcpStream::connect(observer.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // The server answers 431 and closes mid-upload, so this write
        // may fail with a broken pipe — that's fine.
        let _ = stream.write_all(request.as_bytes());
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");
    }

    #[test]
    fn empty_connection_closes_silently_and_server_survives() {
        let observer =
            Observer::bind("127.0.0.1:0", ObserverSources::default()).expect("bind observer");
        let addr = observer.local_addr();
        {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut stream = stream;
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            assert!(response.is_empty(), "unexpected response: {response}");
        }
        assert!(get(addr, "GET /healthz HTTP/1.1\r\n\r\n").contains("200"));
    }

    /// A POST whose headers never finish (no blank line) before the
    /// client goes away is closed without a response, and the server
    /// keeps serving.
    #[test]
    fn post_missing_blank_line_closes_silently() {
        let observer =
            Observer::bind("127.0.0.1:0", ObserverSources::default()).expect("bind observer");
        let addr = observer.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n")
            .expect("write truncated request");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.is_empty(), "unexpected response: {response}");
        assert!(get(addr, "GET /healthz HTTP/1.1\r\n\r\n").contains("200"));
    }

    /// Echo handler exercising the generic layer: POST bodies and query
    /// parameters round-trip.
    struct Echo;

    impl HttpHandler for Echo {
        fn handle(&self, request: &Request) -> Response {
            Response::ok_text(format!(
                "method={} path={} tag={} body={}",
                request.method,
                request.path,
                request.query_param("tag").unwrap_or("-"),
                String::from_utf8_lossy(&request.body),
            ))
        }
    }

    #[test]
    fn post_bodies_and_query_params_reach_the_handler() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(Echo), 2).expect("bind server");
        let response = get(
            server.local_addr(),
            "POST /upload?tag=t1 HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world",
        );
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert_eq!(
            body(&response),
            "method=POST path=/upload tag=t1 body=hello world"
        );
        server.shutdown();
    }

    /// Streaming handler: two chunks, correctly framed, then the
    /// terminal chunk.
    struct Stream2;

    impl HttpHandler for Stream2 {
        fn handle(&self, _request: &Request) -> Response {
            Response::chunked("text/plain; charset=utf-8", |writer| {
                writer.chunk(b"hello ")?;
                writer.chunk(b"world\n")
            })
        }
    }

    #[test]
    fn chunked_responses_are_framed_and_terminated() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(Stream2), 2).expect("bind server");
        let response = get(server.local_addr(), "GET /stream HTTP/1.1\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(
            response.contains("Transfer-Encoding: chunked"),
            "{response}"
        );
        let payload = body(&response);
        assert_eq!(payload, "6\r\nhello \r\n6\r\nworld\n\r\n0\r\n\r\n");
        server.shutdown();
    }

    /// A producer that streams until the client goes away; the server
    /// must swallow the broken pipe and keep serving.
    struct StreamForever;

    impl HttpHandler for StreamForever {
        fn handle(&self, request: &Request) -> Response {
            if request.path != "/stream" {
                return Response::not_found();
            }
            Response::chunked("text/plain; charset=utf-8", |writer| {
                let frame = [b'x'; 4096];
                for _ in 0..100_000 {
                    writer.chunk(&frame)?;
                }
                Ok(())
            })
        }
    }

    #[test]
    fn client_disconnect_mid_stream_is_survived() {
        let server =
            HttpServer::bind("127.0.0.1:0", Arc::new(StreamForever), 2).expect("bind server");
        let addr = server.local_addr();
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"GET /stream HTTP/1.1\r\n\r\n")
                .expect("send request");
            let mut first = [0u8; 1024];
            let n = stream.read(&mut first).expect("read first bytes");
            assert!(n > 0, "no stream bytes before disconnect");
            // Drop mid-stream: the producer's next writes fail.
        }
        // The other pool slot (or the same one, once freed) still works.
        let health = get(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 404"), "{health}");
        server.shutdown();
    }

    /// Panics in the handler on `/boom`, and in the chunk producer after
    /// one chunk on `/boom-stream`; answers anything else.
    struct Boom;

    impl HttpHandler for Boom {
        fn handle(&self, request: &Request) -> Response {
            match request.path.as_str() {
                "/boom" => panic!("handler panic"),
                "/boom-stream" => Response::chunked("text/plain; charset=utf-8", |writer| {
                    writer.chunk(b"partial\n")?;
                    panic!("producer panic")
                }),
                _ => Response::ok_text("ok\n"),
            }
        }
    }

    /// More panics than pool threads: each costs only its own
    /// connection, and the pool still answers afterwards.
    #[test]
    fn panicking_handlers_cost_a_connection_not_a_pool_thread() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(Boom), 2).expect("bind server");
        let addr = server.local_addr();
        for _ in 0..3 {
            let response = get(addr, "GET /boom HTTP/1.1\r\n\r\n");
            assert!(response.starts_with("HTTP/1.1 500"), "{response:?}");
        }
        for _ in 0..3 {
            let response = get(addr, "GET /boom-stream HTTP/1.1\r\n\r\n");
            // The chunk before the panic arrives; the terminal frame
            // never does.
            assert_eq!(body(&response), "8\r\npartial\n\r\n", "{response:?}");
        }
        let health = get(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health:?}");
        server.shutdown();
    }

    /// A request sent right after the previous one is read at once:
    /// nothing in the transport sleeps between connections.
    #[test]
    fn back_to_back_requests_are_answered_without_delay() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(Echo), 2).expect("bind server");
        let addr = server.local_addr();
        let started = Instant::now();
        for _ in 0..50 {
            let response = get(addr, "GET /echo HTTP/1.1\r\n\r\n");
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "50 back-to-back requests took {elapsed:?}"
        );
        server.shutdown();
    }

    /// Shutdown wakes the accept thread blocked in `accept()` — through
    /// loopback when bound to an unspecified address — and joins it
    /// rather than leaving it detached.
    #[test]
    fn shutdown_wakes_the_blocked_acceptor() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0", "[::]:0"] {
            let server = match HttpServer::bind(addr, Arc::new(Echo), 2) {
                Ok(server) => server,
                Err(e) if addr == "[::]:0" => {
                    eprintln!("skipping {addr}: host cannot bind it: {e}");
                    continue;
                }
                Err(e) => panic!("bind {addr}: {e}"),
            };
            let queue = Arc::clone(&server.queue);
            let started = Instant::now();
            server.shutdown();
            let elapsed = started.elapsed();
            assert!(
                elapsed < Duration::from_secs(1),
                "shutdown of a server on {addr} took {elapsed:?}"
            );
            assert_eq!(
                Arc::strong_count(&queue),
                1,
                "a thread of the server on {addr} outlived shutdown"
            );
        }
    }

    /// Holds each `/hold` request until the test releases it; answers
    /// anything else at once.
    struct Gate {
        entered: std::sync::mpsc::Sender<()>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl HttpHandler for Gate {
        fn handle(&self, request: &Request) -> Response {
            if request.path == "/hold" {
                let _ = self.entered.send(());
                let _ = self.release.lock().expect("gate poisoned").recv();
            }
            Response::ok_text("ok\n")
        }
    }

    /// Polls `condition` until it holds, failing the test after 5 s.
    fn wait_until(what: &str, condition: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !condition() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A connection accepted but still queued when shutdown starts is
    /// served, and shutdown still joins every thread.
    #[test]
    fn shutdown_with_a_queued_connection_serves_it_and_joins() {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let gate = Gate {
            entered: entered_tx,
            release: Mutex::new(release_rx),
        };
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(gate), 1).expect("bind server");
        let addr = server.local_addr();
        let queue = Arc::clone(&server.queue);
        let stop = Arc::clone(&server.stop);

        // The only worker holds `/hold`, so `/healthz` waits in the queue.
        let held = std::thread::spawn(move || get(addr, "GET /hold HTTP/1.1\r\n\r\n"));
        entered
            .recv_timeout(Duration::from_secs(5))
            .expect("the worker took /hold");
        let queued = std::thread::spawn(move || get(addr, "GET /healthz HTTP/1.1\r\n\r\n"));
        wait_until("the queued connection", || {
            queue.pending.lock().expect("queue poisoned").len() == 1
        });

        let (done_tx, done) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
        wait_until("shutdown to start", || stop.load(Ordering::Relaxed));
        release.send(()).expect("release /hold");
        done.recv_timeout(Duration::from_secs(1))
            .expect("shutdown returned within 1 s");
        stopper.join().expect("shutdown thread");

        let held = held.join().expect("/hold client");
        assert!(held.starts_with("HTTP/1.1 200"), "{held:?}");
        let queued = queued.join().expect("/healthz client");
        assert!(queued.starts_with("HTTP/1.1 200"), "{queued:?}");
        assert_eq!(
            Arc::strong_count(&queue),
            1,
            "a server thread outlived shutdown"
        );
    }

    /// Checkpoint `age_s` clamps to 0 when the file mtime is ahead of
    /// the clock (NTP step, coarse filesystem timestamps) instead of
    /// degrading to `null`.
    #[test]
    fn checkpoint_age_clamps_future_mtimes_to_zero() {
        let dir = std::env::temp_dir().join(format!("sixgen-age-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("run.ckpt");
        let file = std::fs::File::create(&path).expect("create checkpoint file");
        file.set_modified(std::time::SystemTime::now() + Duration::from_secs(3600))
            .expect("set future mtime");
        drop(file);
        let sources = ObserverSources {
            checkpoint: Some(path.clone()),
            ..ObserverSources::default()
        };
        let doc = status_json(&sources, Instant::now());
        validate_json(&doc).expect("valid status JSON");
        assert!(doc.contains("\"age_s\":0.000"), "{doc}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
