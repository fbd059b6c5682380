//! The vehicle side of the wire: connect, register, answer rounds, with
//! capped-exponential retry whose jitter is *seeded* — a fault-matrix run
//! at a given seed reconnects at exactly the same instants every time.

use crate::server::{NetError, UploadMode, DEFAULT_ROUND_DEADLINE};
use crate::transport::{Conn, NetAddr};
use crate::wire::{
    encode_control, encode_forget_request, encode_grad_upload_into, encode_register,
    encode_sign_upload_into, read_frame, ControlCode, WireError,
};
use fuiov_fl::Client;
use fuiov_obs::counter;
use fuiov_storage::segment::{check_record, RecordKind, HEADER_LEN, TRAILER_LEN};
use fuiov_storage::{ClientId, GradientDirection, Round};
use fuiov_tensor::rng::{rng_for, streams};
use fuiov_tensor::simd::AVec;
use rand::Rng;
use std::io::Write;
use std::net::Shutdown;
use std::time::Duration;

/// Capped exponential backoff with seeded jitter.
///
/// Attempt `k` sleeps in `[b·2ᵏ/2, b·2ᵏ]` (capped), the jitter drawn
/// from the [`streams::NET`] RNG stream keyed by `(seed, client,
/// attempt)` — deterministic per seed, decorrelated across vehicles so a
/// cohort knocked offline together doesn't thunder back in lockstep.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Connection attempts per (re)connect sequence before giving up.
    pub max_attempts: u32,
    /// Backoff for the first retry.
    pub base: Duration,
    /// Exponential growth cap.
    pub cap: Duration,
    /// Jitter seed (reuse the experiment seed for reproducible runs).
    pub seed: u64,
}

impl RetryPolicy {
    /// Default policy: 5 attempts, 10 ms base, 500 ms cap.
    pub fn new(seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed,
        }
    }

    /// The sleep before retry `attempt` (0-based) for `client`.
    pub fn backoff(&self, client: ClientId, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        let span = exp.as_micros().max(2) as u64;
        let mut rng = rng_for(
            self.seed,
            streams::NET + client as u64 * 131 + attempt as u64,
        );
        let jitter = rng.gen_range(0..span / 2);
        Duration::from_micros(span / 2 + jitter)
    }
}

/// Vehicle-side configuration.
#[derive(Debug, Clone)]
pub struct VehicleConfig {
    /// Server address to dial.
    pub addr: NetAddr,
    /// Upload encoding (must match the server's [`UploadMode`]).
    pub mode: UploadMode,
    /// Sign-quantization threshold for [`UploadMode::Sign2Bit`].
    pub quantize_delta: f32,
    /// Reconnect policy.
    pub retry: RetryPolicy,
    /// Per-round deadline: the longest a read may block before the
    /// vehicle treats the connection as dead and re-dials
    /// ([`DEFAULT_ROUND_DEADLINE`] unless set with
    /// [`VehicleConfig::with_deadline`]).
    pub round_deadline: Duration,
}

impl VehicleConfig {
    /// Full-precision uploads to `addr` with the default retry policy
    /// seeded by `seed`.
    pub fn new(addr: NetAddr, seed: u64) -> Self {
        VehicleConfig {
            addr,
            mode: UploadMode::FullF32,
            quantize_delta: 0.0,
            retry: RetryPolicy::new(seed),
            round_deadline: DEFAULT_ROUND_DEADLINE,
        }
    }

    /// Switches to 2-bit sign uploads quantized at `delta`.
    pub fn with_sign_uploads(mut self, delta: f32) -> Self {
        self.mode = UploadMode::Sign2Bit;
        self.quantize_delta = delta;
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the per-round deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.round_deadline = d;
        self
    }
}

/// What one vehicle did over its lifetime on the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VehicleReport {
    /// Rounds answered with an upload.
    pub uploads: usize,
    /// Rounds explicitly skipped (dropout hook said no).
    pub skips: usize,
    /// Successful reconnects after a drop.
    pub reconnects: u32,
    /// Upload payload bytes written.
    pub tx_payload: u64,
    /// Framing overhead written (uploads + protocol chatter).
    pub tx_overhead: u64,
}

/// A federated client speaking the wire protocol.
///
/// Wraps any [`fuiov_fl::Client`]; the `responds_in` dropout hook is
/// honoured by sending an explicit [`ControlCode::Skip`] so the server
/// can close the round without waiting out the deadline.
pub struct NetVehicle {
    cfg: VehicleConfig,
    client: Box<dyn Client>,
    dim: usize,
    forget_after: Option<(Round, Vec<ClientId>)>,
}

impl NetVehicle {
    /// Wraps `client`, which trains a `dim`-parameter model.
    pub fn new(cfg: VehicleConfig, client: Box<dyn Client>, dim: usize) -> Self {
        NetVehicle {
            cfg,
            client,
            dim,
            forget_after: None,
        }
    }

    /// Queues an unlearning request to submit right after answering
    /// `round` — exercises the forget plumbing end to end.
    pub fn with_forget_after(mut self, round: Round, clients: Vec<ClientId>) -> Self {
        self.forget_after = Some((round, clients));
        self
    }

    /// Runs until the server says [`ControlCode::Done`], reconnecting
    /// with backoff on drops.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`]/[`NetError::Wire`] once a reconnect sequence
    /// exhausts [`RetryPolicy::max_attempts`] — the vehicle then simply
    /// exits and the server sees it as a dropout, never a hang.
    pub fn run(mut self) -> Result<VehicleReport, NetError> {
        let mut report = VehicleReport::default();
        let mut frame = Vec::new();
        let mut scratch = AVec::new();
        let mut upload_buf = Vec::new();
        let mut payload_buf = Vec::new();
        let mut first = true;
        loop {
            let mut conn = self.connect_with_retry(first, &mut report)?;
            first = false;
            match self.session(
                &mut conn,
                &mut report,
                &mut frame,
                &mut scratch,
                &mut upload_buf,
                &mut payload_buf,
            ) {
                Ok(()) => return Ok(report),
                Err(e) => {
                    counter!("net.vehicle_drops").inc();
                    conn.shutdown(Shutdown::Both);
                    // Any session error — torn frame, timeout, reset —
                    // funnels into the same reconnect path.
                    let _ = e;
                }
            }
        }
    }

    /// Dials with capped, seeded backoff. `first` distinguishes the
    /// initial dial from a reconnect (for the report).
    fn connect_with_retry(
        &self,
        first: bool,
        report: &mut VehicleReport,
    ) -> Result<Conn, NetError> {
        let id = self.client.id();
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..self.cfg.retry.max_attempts {
            if attempt > 0 || !first {
                std::thread::sleep(self.cfg.retry.backoff(id, attempt));
            }
            match Conn::connect(&self.cfg.addr) {
                Ok(conn) => {
                    conn.set_read_timeout(Some(self.cfg.round_deadline))?;
                    if !first {
                        report.reconnects += 1;
                        counter!("net.vehicle_reconnects").inc();
                    }
                    return Ok(conn);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(NetError::Io(format!(
            "vehicle {id}: connect retries exhausted: {}",
            last.map_or_else(|| "no attempt".to_string(), |e| e.to_string())
        )))
    }

    /// One connected session: register, answer rounds until Done.
    fn session(
        &mut self,
        conn: &mut Conn,
        report: &mut VehicleReport,
        frame: &mut Vec<u8>,
        scratch: &mut AVec,
        upload_buf: &mut Vec<u8>,
        payload_buf: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        let id = self.client.id();
        let hello = encode_register(id, self.client.weight(), self.dim);
        conn.write_all(&hello)?;
        report.tx_overhead += hello.len() as u64;

        loop {
            if !read_frame(conn, frame)? {
                // Server closed without Done: treat as a drop so the
                // retry path decides whether to re-dial.
                return Err(WireError::Io("server closed mid-session".to_string()));
            }
            let (kind, round, _base, payload) = check_record(frame)?;
            match kind {
                RecordKind::RoundModel => {
                    counter!("net.vehicle_bytes_rx").add(payload.len() as u64);
                    if payload.len() != self.dim * 4 {
                        return Err(WireError::Malformed("round-model length"));
                    }
                    // Decode into the reusable aligned scratch — the
                    // steady-state loop allocates nothing.
                    scratch.resize(self.dim, 0.0);
                    let out = scratch.as_mut_slice();
                    for (i, c) in payload.chunks_exact(4).enumerate() {
                        out[i] = f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
                    }
                    if !self.client.responds_in(round) {
                        let skip = encode_control(ControlCode::Skip, round as u64);
                        conn.write_all(&skip)?;
                        report.skips += 1;
                        report.tx_overhead += skip.len() as u64;
                        continue;
                    }
                    let grad = self.client.gradient(scratch.as_slice(), round);
                    match self.cfg.mode {
                        UploadMode::FullF32 => {
                            encode_grad_upload_into(upload_buf, payload_buf, round, id, &grad);
                        }
                        UploadMode::Sign2Bit => {
                            let dir = GradientDirection::quantize(&grad, self.cfg.quantize_delta);
                            encode_sign_upload_into(upload_buf, round, id, &dir);
                        }
                    }
                    conn.write_all(upload_buf)?;
                    report.uploads += 1;
                    let payload_len = (upload_buf.len() - HEADER_LEN - TRAILER_LEN) as u64;
                    report.tx_payload += payload_len;
                    report.tx_overhead += (HEADER_LEN + TRAILER_LEN) as u64;
                    counter!("net.vehicle_bytes_tx").add(payload_len);
                    if let Some((after, _)) = &self.forget_after {
                        if *after == round {
                            let (_, clients) =
                                self.forget_after.take().expect("checked just above");
                            let req = encode_forget_request(id, &clients);
                            conn.write_all(&req)?;
                            report.tx_overhead += (HEADER_LEN + TRAILER_LEN) as u64;
                        }
                    }
                }
                RecordKind::Control => {
                    // RegisterAck and Done are the only server controls.
                    match round as u64 {
                        0 => return Ok(()), // Done
                        1 => continue,      // RegisterAck
                        other => return Err(WireError::BadControl(other)),
                    }
                }
                other => return Err(WireError::NotAWireKind(other.code())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_seeded_capped_and_decorrelated() {
        let p = RetryPolicy::new(42);
        // Deterministic per (seed, client, attempt).
        assert_eq!(p.backoff(3, 1), p.backoff(3, 1));
        // Different clients draw different jitter.
        assert_ne!(p.backoff(3, 1), p.backoff(4, 1));
        // Different seeds draw different jitter.
        assert_ne!(RetryPolicy::new(7).backoff(3, 1), p.backoff(3, 1));
        // Grows roughly exponentially and never exceeds the cap.
        for attempt in 0..12 {
            let d = p.backoff(0, attempt);
            let exp = p.base.saturating_mul(1 << attempt.min(16)).min(p.cap);
            assert!(d >= exp / 2 && d <= exp, "attempt {attempt}: {d:?}");
            assert!(d <= p.cap);
        }
    }
}
