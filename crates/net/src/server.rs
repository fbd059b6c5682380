//! The networked round loop: accept pool, per-round inbox, and the
//! transport seam into [`fuiov_fl::Server`].
//!
//! # Determinism boundary
//!
//! The wire is allowed to be nondeterministic — threads race, uploads
//! arrive in whatever order the scheduler produces. Determinism is
//! restored at exactly one point: the round inbox buffers every upload in
//! a `BTreeMap<ClientId, _>` and drains it in *flat client order* before
//! handing the batch to [`fuiov_fl::Server::run_round_uploads`]. Given
//! the same participation set, a networked round is therefore bitwise
//! identical to the in-process loop — the testkit oracle pins this.
//!
//! # Concurrency model (std-only threads)
//!
//! One accept thread runs for the whole serve; it spawns one handler
//! thread per connection, bounded by [`NetConfig::max_threads`] (excess
//! connections wait in the kernel backlog). Handlers read frames into a
//! per-connection reusable `Vec`, decode each upload straight into the
//! vector the round takes, and push it into the shared inbox guarded by
//! one `Mutex`/`Condvar` pair. The round loop serializes the model payload
//! once per round, seals it once ([`frame_parts`]), and issues one
//! vectored write per client — the broadcast never copies the payload.

use crate::registry::{Registration, Registry};
use crate::transport::{write_frame, Conn, Listener, NetAddr};
use crate::wire::{
    decode_message, encode_control, read_frame_idle, round_model_payload, ControlCode, Message,
    WireError,
};
use fuiov_fl::{Server, Upload};
use fuiov_obs::counter;
use fuiov_storage::segment::{frame_parts, RecordKind, HEADER_LEN, TRAILER_LEN};
use fuiov_storage::{ClientId, Round, SegmentDecodeError};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default handler-pool bound of [`NetConfig::new`].
pub const DEFAULT_MAX_THREADS: usize = 32;
/// Default per-round deadline of [`NetConfig::new`] and
/// [`VehicleConfig::new`](crate::VehicleConfig::new).
pub const DEFAULT_ROUND_DEADLINE: Duration = Duration::from_secs(5);

const FRAME_OVERHEAD: u64 = (HEADER_LEN + TRAILER_LEN) as u64;

/// What vehicles upload each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UploadMode {
    /// Full-precision gradients (`4·d` payload bytes per upload).
    FullF32,
    /// 2-bit sign-compressed directions (`⌈d/4⌉` payload bytes).
    Sign2Bit,
}

/// Networked-plane configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Where to listen.
    pub addr: NetAddr,
    /// How many vehicles must register before round 0 opens.
    pub expected_clients: usize,
    /// Upload encoding vehicles are expected to use.
    pub mode: UploadMode,
    /// Per-round upload deadline; vehicles silent past it are dropouts.
    pub round_deadline: Duration,
    /// Handler-pool bound (concurrent connections served).
    pub max_threads: usize,
}

impl NetConfig {
    /// Config for `expected_clients` vehicles at `addr`: full-precision
    /// uploads, [`DEFAULT_ROUND_DEADLINE`] and [`DEFAULT_MAX_THREADS`].
    pub fn new(addr: NetAddr, expected_clients: usize) -> Self {
        NetConfig {
            addr,
            expected_clients,
            mode: UploadMode::FullF32,
            round_deadline: DEFAULT_ROUND_DEADLINE,
            max_threads: DEFAULT_MAX_THREADS,
        }
    }

    /// Selects the upload encoding.
    pub fn with_mode(mut self, mode: UploadMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the per-round deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.round_deadline = d;
        self
    }

    /// Overrides the handler-pool bound (clamped to ≥ 1).
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.max_threads = n.max(1);
        self
    }
}

/// Networked-plane failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Socket-level failure.
    Io(String),
    /// Protocol failure on a connection the server itself drove.
    Wire(WireError),
    /// Not enough vehicles registered before the deadline.
    Registration {
        /// How many made it.
        registered: usize,
        /// How many were expected.
        expected: usize,
    },
    /// Vehicles disagree on the model dimension, or disagree with the
    /// server's parameter vector.
    DimMismatch {
        /// The server's dimension.
        server: usize,
        /// What the registry reports (`None` = vehicles disagree among
        /// themselves).
        vehicles: Option<usize>,
    },
    /// `serve` was called twice on one `NetServer`.
    ListenerConsumed,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "net i/o: {e}"),
            NetError::Wire(e) => write!(f, "net wire: {e}"),
            NetError::Registration {
                registered,
                expected,
            } => write!(
                f,
                "registration deadline: {registered}/{expected} vehicles announced"
            ),
            NetError::DimMismatch { server, vehicles } => {
                write!(
                    f,
                    "model dim mismatch: server {server}, vehicles {vehicles:?}"
                )
            }
            NetError::ListenerConsumed => write!(f, "serve() already ran on this NetServer"),
        }
    }
}

impl Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// Exact accounting for one `serve` run. Payload counters cover only
/// *accepted* round-pipeline frames (model broadcasts down, first-wins
/// uploads up), so in a clean run they reconcile bit-for-bit with
/// [`fuiov_fl::comms::round_bytes`]; framing overhead (header + trailer,
/// 35 B/frame) and protocol chatter are tallied separately.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetRunReport {
    /// Rounds driven.
    pub rounds: usize,
    /// Vehicles registered when round 0 opened.
    pub clients: usize,
    /// Model-broadcast payload bytes written (`rounds · n · 4d` clean).
    pub tx_payload: u64,
    /// Upload payload bytes accepted (`rounds · n · 4d` full / `⌈d/4⌉`
    /// sign, clean).
    pub rx_payload: u64,
    /// Framing overhead on broadcasts.
    pub tx_overhead: u64,
    /// Framing overhead on accepted uploads.
    pub rx_overhead: u64,
    /// Duplicate uploads discarded (first-wins).
    pub duplicates: u64,
    /// Uploads for a round that wasn't open.
    pub stale: u64,
    /// Connections dropped on a torn frame.
    pub torn: u64,
    /// Explicit per-round skips (voluntary dropouts).
    pub skips: u64,
    /// Rounds closed by deadline with vehicles still silent.
    pub timeouts: u64,
    /// Unlearning requests received over the wire, in arrival order.
    pub forget_requests: Vec<(ClientId, Vec<ClientId>)>,
}

/// Shared state between accept thread, handlers, and the round loop.
struct Inbox {
    registry: Registry,
    /// Per-connection writers; each socket's writes are serialized by its
    /// own mutex so a registration ack can't interleave with a broadcast.
    writers: BTreeMap<ClientId, Arc<Mutex<Conn>>>,
    /// The round currently accepting uploads.
    round: Option<Round>,
    /// First-wins decoded uploads for the open round, keyed (= sorted)
    /// by client — the determinism boundary.
    grads: BTreeMap<ClientId, Vec<f32>>,
    /// Clients that answered the open round (upload or skip).
    answered: BTreeSet<ClientId>,
    /// Registered clients currently connected.
    live: usize,
    rx_payload: u64,
    rx_overhead: u64,
    duplicates: u64,
    stale: u64,
    torn: u64,
    skips: u64,
    forget: Vec<(ClientId, Vec<ClientId>)>,
}

struct Shared {
    inbox: Mutex<Inbox>,
    cv: Condvar,
    mode: UploadMode,
    done: AtomicBool,
}

/// The networked FL server: binds, accepts vehicles, and drives rounds
/// through an in-process [`fuiov_fl::Server`] so the two planes share
/// every line of round arithmetic.
pub struct NetServer {
    cfg: NetConfig,
    listener: Option<Listener>,
    addr: NetAddr,
}

impl NetServer {
    /// Binds the configured address (resolving an ephemeral TCP port).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the bind fails.
    pub fn bind(cfg: NetConfig) -> Result<NetServer, NetError> {
        let listener = Listener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        Ok(NetServer {
            cfg,
            listener: Some(listener),
            addr,
        })
    }

    /// The resolved listen address vehicles should dial.
    pub fn local_addr(&self) -> &NetAddr {
        &self.addr
    }

    /// Runs `rounds` federated rounds over the wire, mutating `fl`
    /// exactly as the in-process loop would. One-shot per `NetServer`.
    ///
    /// # Errors
    ///
    /// [`NetError::Registration`] when fewer than
    /// [`NetConfig::expected_clients`] announce within the deadline,
    /// [`NetError::DimMismatch`] when registered dimensions disagree with
    /// `fl`, [`NetError::ListenerConsumed`] on a second call, `Io` for
    /// listener failures.
    pub fn serve(&mut self, fl: &mut Server, rounds: usize) -> Result<NetRunReport, NetError> {
        let listener = self.listener.take().ok_or(NetError::ListenerConsumed)?;
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Inbox {
                registry: Registry::new(),
                writers: BTreeMap::new(),
                round: None,
                grads: BTreeMap::new(),
                answered: BTreeSet::new(),
                live: 0,
                rx_payload: 0,
                rx_overhead: 0,
                duplicates: 0,
                stale: 0,
                torn: 0,
                skips: 0,
                forget: Vec::new(),
            }),
            cv: Condvar::new(),
            mode: self.cfg.mode,
            done: AtomicBool::new(false),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            let max_threads = self.cfg.max_threads;
            std::thread::spawn(move || accept_loop(listener, shared, max_threads))
        };

        let run = self.drive_rounds(fl, rounds, &shared);

        // Wind down whether the run succeeded or not: Done broadcast,
        // socket shutdowns, wake the accept thread, join everything.
        let writers: Vec<Arc<Mutex<Conn>>> = {
            let inbox = shared.inbox.lock().expect("net inbox poisoned");
            inbox.writers.values().cloned().collect()
        };
        let done_frame = encode_control(ControlCode::Done, 0);
        for w in &writers {
            let mut conn = w.lock().expect("net writer poisoned");
            let _ = std::io::Write::write_all(&mut *conn, &done_frame);
            conn.shutdown(Shutdown::Both);
        }
        shared.done.store(true, Ordering::SeqCst);
        if let Ok(c) = Conn::connect(&self.addr) {
            c.shutdown(Shutdown::Both);
        }
        let handlers = accept.join().expect("net accept thread panicked");
        for h in handlers {
            let _ = h.join();
        }

        let mut report = run?;
        let inbox = shared.inbox.lock().expect("net inbox poisoned");
        report.rx_payload = inbox.rx_payload;
        report.rx_overhead = inbox.rx_overhead;
        report.duplicates = inbox.duplicates;
        report.stale = inbox.stale;
        report.torn = inbox.torn;
        report.skips = inbox.skips;
        report.forget_requests = inbox.forget.clone();
        Ok(report)
    }

    /// Registration barrier + the per-round broadcast/collect loop.
    fn drive_rounds(
        &self,
        fl: &mut Server,
        rounds: usize,
        shared: &Arc<Shared>,
    ) -> Result<NetRunReport, NetError> {
        let deadline = self.cfg.round_deadline;
        let expected = self.cfg.expected_clients;

        // Registration barrier.
        let start = Instant::now();
        {
            let mut inbox = shared.inbox.lock().expect("net inbox poisoned");
            while inbox.registry.len() < expected {
                let elapsed = start.elapsed();
                if elapsed >= deadline {
                    return Err(NetError::Registration {
                        registered: inbox.registry.len(),
                        expected,
                    });
                }
                let (g, _) = shared
                    .cv
                    .wait_timeout(inbox, deadline - elapsed)
                    .expect("net inbox poisoned");
                inbox = g;
            }
            match inbox.registry.common_dim() {
                Some(d) if d == fl.params().len() => {}
                vehicles => {
                    return Err(NetError::DimMismatch {
                        server: fl.params().len(),
                        vehicles,
                    })
                }
            }
        }

        let mut report = NetRunReport {
            rounds,
            clients: expected,
            ..NetRunReport::default()
        };
        let mut payload = Vec::new();

        for _ in 0..rounds {
            let t = fl.round();

            // Open the round *before* broadcasting so no upload can race
            // the round marker.
            let writers: Vec<Arc<Mutex<Conn>>> = {
                let mut inbox = shared.inbox.lock().expect("net inbox poisoned");
                inbox.round = Some(t);
                inbox.grads.clear();
                inbox.answered.clear();
                inbox.writers.values().cloned().collect()
            };

            // Serialize + seal once; one vectored write per client.
            round_model_payload(fl.params(), &mut payload);
            let (header, trailer) = frame_parts(RecordKind::RoundModel, t, 0, &payload);
            for w in &writers {
                let mut conn = w.lock().expect("net writer poisoned");
                match write_frame(&mut *conn, &header, &payload, &trailer) {
                    Ok(()) => {
                        report.tx_payload += payload.len() as u64;
                        report.tx_overhead += FRAME_OVERHEAD;
                        counter!("net.bytes_tx").add(payload.len() as u64);
                        counter!("net.overhead_bytes_tx").add(FRAME_OVERHEAD);
                    }
                    Err(_) => {
                        // The handler sees the dead socket on its next
                        // read and runs the disconnect path; the vehicle
                        // surfaces as a dropout below.
                        counter!("net.broadcast_failures").inc();
                        conn.shutdown(Shutdown::Both);
                    }
                }
            }

            // Collect until every live vehicle answered or the deadline.
            let round_start = Instant::now();
            let uploads: Vec<Upload> = {
                let mut inbox = shared.inbox.lock().expect("net inbox poisoned");
                loop {
                    if inbox.live == 0 || inbox.answered.len() >= inbox.live {
                        break;
                    }
                    let elapsed = round_start.elapsed();
                    if elapsed >= deadline {
                        report.timeouts += 1;
                        counter!("net.round_timeouts").inc();
                        break;
                    }
                    let (g, _) = shared
                        .cv
                        .wait_timeout(inbox, deadline - elapsed)
                        .expect("net inbox poisoned");
                    inbox = g;
                }
                inbox.round = None;
                let grads = std::mem::take(&mut inbox.grads);
                // BTreeMap drain order = flat client order: this is the
                // whole determinism boundary.
                grads
                    .into_iter()
                    .map(|(client, grad)| Upload {
                        client,
                        weight: inbox.registry.get(client).map(|r| r.weight).unwrap_or(0.0),
                        grad,
                    })
                    .collect()
            };

            fl.run_round_uploads(uploads);
        }

        Ok(report)
    }
}

/// Accept loop: spawns one handler per connection, bounded by
/// `max_threads` live handlers (excess connections wait in the kernel
/// backlog until a slot frees).
fn accept_loop(
    listener: Listener,
    shared: Arc<Shared>,
    max_threads: usize,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut handlers = Vec::new();
    let live_handlers = Arc::new((Mutex::new(0usize), Condvar::new()));
    loop {
        if shared.done.load(Ordering::SeqCst) {
            break;
        }
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => {
                if shared.done.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.done.load(Ordering::SeqCst) {
            conn.shutdown(Shutdown::Both);
            break;
        }
        {
            let (count, cv) = &*live_handlers;
            let mut n = count.lock().expect("net pool poisoned");
            while *n >= max_threads {
                n = cv.wait(n).expect("net pool poisoned");
            }
            *n += 1;
        }
        let shared = Arc::clone(&shared);
        let pool = Arc::clone(&live_handlers);
        handlers.push(std::thread::spawn(move || {
            handle_conn(conn, &shared);
            let (count, cv) = &*pool;
            *count.lock().expect("net pool poisoned") -= 1;
            cv.notify_one();
        }));
    }
    handlers
}

/// One connection's read loop: register, then fold uploads into the
/// inbox until the peer closes or the frame stream breaks.
fn handle_conn(mut conn: Conn, shared: &Shared) {
    counter!("net.connections").inc();
    // Short read timeout so the loop can poll the done flag: a handler
    // must never block indefinitely on a silent peer, or wind-down could
    // hang joining it (e.g. a vehicle that reconnected after the final
    // Done sweep and is itself blocked reading).
    let _ = conn.set_read_timeout(Some(Duration::from_millis(100)));
    let mut frame = Vec::new();
    let mut registered: Option<(ClientId, usize, Arc<Mutex<Conn>>)> = None;

    let result = conn_loop(&mut conn, shared, &mut frame, &mut registered);

    if let Err(e) = &result {
        match e {
            WireError::Frame(SegmentDecodeError::Truncated) => {
                counter!("net.torn_frames").inc();
                let mut inbox = shared.inbox.lock().expect("net inbox poisoned");
                inbox.torn += 1;
            }
            WireError::Frame(_)
            | WireError::Oversize(_)
            | WireError::Malformed(_)
            | WireError::NotAWireKind(_)
            | WireError::BadControl(_) => {
                counter!("net.protocol_errors").inc();
            }
            WireError::TimedOut | WireError::Io(_) => counter!("net.io_errors").inc(),
        }
        counter!("net.dropped_connections").inc();
    }

    conn.shutdown(Shutdown::Both);
    let mut inbox = shared.inbox.lock().expect("net inbox poisoned");
    if let Some((client, _, writer)) = registered {
        // Remove the writer only if it is still *ours*: a vehicle that
        // dropped and re-registered already replaced the map entry, and
        // this stale handler must not strip the live connection's writer.
        if inbox
            .writers
            .get(&client)
            .is_some_and(|w| Arc::ptr_eq(w, &writer))
        {
            inbox.writers.remove(&client);
        }
        inbox.live -= 1;
    }
    drop(inbox);
    shared.cv.notify_all();
}

fn conn_loop(
    conn: &mut Conn,
    shared: &Shared,
    frame: &mut Vec<u8>,
    registered: &mut Option<(ClientId, usize, Arc<Mutex<Conn>>)>,
) -> Result<(), WireError> {
    loop {
        // Keep waiting through read timeouts until the serve loop raises
        // its done flag, then exit cleanly — this is what bounds every
        // handler's lifetime during wind-down.
        match read_frame_idle(conn, frame, || !shared.done.load(Ordering::SeqCst)) {
            Ok(true) => {}
            Ok(false) => return Ok(()),
            Err(WireError::TimedOut) => return Ok(()),
            Err(e) => return Err(e),
        }
        let dim = registered.as_ref().map_or(0, |(_, d, _)| *d);
        let msg = decode_message(frame, dim)?;
        let payload_len = (frame.len() - HEADER_LEN - TRAILER_LEN) as u64;
        match msg {
            Message::Register {
                client,
                weight,
                dim,
            } => {
                let writer = Arc::new(Mutex::new(conn.try_clone()?));
                {
                    let mut inbox = shared.inbox.lock().expect("net inbox poisoned");
                    if inbox.registry.register(Registration {
                        client,
                        weight,
                        dim,
                    }) {
                        counter!("net.registrations").inc();
                    }
                    inbox.writers.insert(client, Arc::clone(&writer));
                    if registered.is_none() {
                        inbox.live += 1;
                    }
                }
                *registered = Some((client, dim, Arc::clone(&writer)));
                shared.cv.notify_all();
                let ack = encode_control(ControlCode::RegisterAck, client as u64);
                let mut w = writer.lock().expect("net writer poisoned");
                std::io::Write::write_all(&mut *w, &ack)?;
            }
            Message::GradUpload {
                round,
                client,
                grad,
            } => {
                if shared.mode != UploadMode::FullF32 {
                    counter!("net.protocol_errors").inc();
                    continue;
                }
                intake(shared, round, client, grad, payload_len);
            }
            Message::SignUpload { round, client, dir } => {
                if shared.mode != UploadMode::Sign2Bit {
                    counter!("net.protocol_errors").inc();
                    continue;
                }
                intake(shared, round, client, dir.to_f32(), payload_len);
            }
            Message::ForgetRequest { from, clients } => {
                counter!("net.forget_requests").inc();
                let mut inbox = shared.inbox.lock().expect("net inbox poisoned");
                inbox.forget.push((from, clients));
                drop(inbox);
                shared.cv.notify_all();
            }
            Message::Control {
                code: ControlCode::Skip,
                arg,
            } => {
                let mut inbox = shared.inbox.lock().expect("net inbox poisoned");
                if inbox.round == Some(arg as Round) {
                    if let Some((client, _, _)) = registered.as_ref() {
                        inbox.answered.insert(*client);
                        inbox.skips += 1;
                        counter!("net.skips").inc();
                    }
                }
                drop(inbox);
                shared.cv.notify_all();
            }
            Message::Control {
                code: ControlCode::Done,
                ..
            } => return Ok(()),
            Message::RoundModel { .. }
            | Message::Control {
                code: ControlCode::RegisterAck,
                ..
            } => {
                // Server-to-client messages arriving at the server are a
                // protocol violation; drop the connection.
                return Err(WireError::Malformed("server-bound message on server"));
            }
        }
    }
}

/// First-wins intake of one decoded upload for the open round.
fn intake(shared: &Shared, round: Round, client: ClientId, grad: Vec<f32>, payload_len: u64) {
    let mut inbox = shared.inbox.lock().expect("net inbox poisoned");
    if inbox.round != Some(round) {
        inbox.stale += 1;
        counter!("net.stale_uploads").inc();
        return;
    }
    if inbox.grads.contains_key(&client) {
        inbox.duplicates += 1;
        counter!("net.duplicate_uploads").inc();
        return;
    }
    inbox.grads.insert(client, grad);
    inbox.answered.insert(client);
    inbox.rx_payload += payload_len;
    inbox.rx_overhead += FRAME_OVERHEAD;
    counter!("net.bytes_rx").add(payload_len);
    counter!("net.overhead_bytes_rx").add(FRAME_OVERHEAD);
    drop(inbox);
    shared.cv.notify_all();
}
