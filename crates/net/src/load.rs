//! A load-generating TCP client: submits values over the client protocol
//! (`Hello{kind: Client}` + submit frames, tagged with the group id for
//! any group but 0), watches the delivery push stream, and reports
//! latency/throughput histograms. [`run_session`] is the one session
//! loop; [`run_load`] plans `u64` values for it, and keyed generators
//! (e.g. `gcs-shard`'s KV load) plan their own encoded commands.
//!
//! Two driving disciplines:
//!
//! - **closed-loop**: keep a fixed window of operations outstanding;
//!   submit the next one only when one of ours is delivered back. This
//!   measures per-operation latency under a bounded offered load.
//! - **open-loop**: submit at a fixed rate regardless of deliveries.
//!   This measures how the ring behaves when the offered load is
//!   independent of its progress.

use crate::codec::{read_frame, write_frame, Frame, FrameWriter, HelloKind};
use gcs_model::{ProcId, Value};
use std::collections::BTreeMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The shared log-scale latency histogram (samples are microseconds
/// here). This used to be a private sample-vector type duplicated
/// between the load generator and `gcs-client`; both now record into
/// the `gcs-obs` implementation, whose percentile estimate is clamped
/// to the observed min/max (so a top-bucket query can never report a
/// value above anything actually measured) and which can be registered
/// and exposed like any other metric.
pub use gcs_obs::Histogram;

/// Driving discipline for the load generator.
#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// Keep `window` operations outstanding.
    Closed {
        /// Outstanding-operation window.
        window: usize,
    },
    /// Submit at `rate` operations per second, regardless of deliveries.
    Open {
        /// Offered rate, operations per second.
        rate: u64,
    },
}

/// What one load run produced.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Operations submitted.
    pub submitted: u64,
    /// Of those, operations seen delivered back on the watched node.
    pub delivered: u64,
    /// Wall time from first submit to last delivery (or timeout).
    pub elapsed: Duration,
    /// Submit→deliver latency per completed operation.
    pub latency_us: Histogram,
}

impl LoadReport {
    /// Completed operations per second.
    pub fn throughput_ops(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.delivered as f64 / secs
    }
}

/// Load-generator parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Total operations to submit.
    pub ops: u64,
    /// Values are `value_base .. value_base + ops`; distinct generators
    /// against one cluster must use disjoint ranges.
    pub value_base: u64,
    /// Driving discipline.
    pub mode: LoadMode,
    /// Give up waiting for deliveries after this long with no progress.
    pub idle_timeout: Duration,
    /// Operations submitted and completed *before* the timed window
    /// opens. They warm the ring — view formation, the cold token's
    /// first rotations — and are excluded from the histogram and the
    /// elapsed time, so the ramp-up cannot masquerade as a genuine p99
    /// tail. Warm-up values occupy `value_base .. value_base + warmup`;
    /// the timed range follows them.
    pub warmup: u64,
}

/// Runs one load generation session against the node at `addr`.
///
/// The generator submits `Value::from_u64(value_base + i)` for each
/// operation and measures the time until the watched node pushes the
/// matching `Deliver` frame back — i.e. full submit→total-order→deliver
/// latency through the ring, as observed at that node.
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> io::Result<LoadReport> {
    let hi = cfg.value_base + cfg.warmup + cfg.ops;
    let planned: Vec<Value> = (cfg.value_base..hi).map(Value::from_u64).collect();
    run_session(addr, 0, &planned, cfg.warmup as usize, cfg.mode, cfg.idle_timeout)
}

/// Runs one load session for group `group` against the member at
/// `addr`: submits the `planned` values in order — the first `warmup`
/// of them as an untimed warm-up — and matches each against the node's
/// delivery push stream by [`Value::fingerprint`], so planned values
/// must have distinct fingerprints. Group 0 speaks the untagged client
/// frames, every other group the tagged ones.
///
/// The warm-up drives the ring through its first rotations (view
/// formation, the cold token's first launches) as a closed loop; its
/// operations are excluded from the histogram and the elapsed time, so
/// the ramp-up cannot masquerade as a genuine p99 tail. `idle_timeout`
/// bounds how long either phase waits without a delivery.
pub fn run_session(
    addr: SocketAddr,
    group: u32,
    planned: &[Value],
    warmup: usize,
    mode: LoadMode,
    idle_timeout: Duration,
) -> io::Result<LoadReport> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(
        &mut stream,
        &Frame::Hello { node: ProcId(u32::MAX), generation: 0, kind: HelloKind::Client },
    )?;

    // Reader thread: forward the fingerprints of values delivered by our
    // group with their arrival instant; exits on EOF/error. Deliveries
    // arrive in bursts (the node writes one vectored batch per flush), so
    // the reader drains every frame already buffered and crosses the
    // channel once per burst — one timestamp, one send, one receiver
    // wakeup — instead of once per operation.
    let (tx, rx) = mpsc::channel::<(Vec<u64>, Instant)>();
    let read_half = stream.try_clone()?;
    let reader = std::thread::spawn(move || {
        let mut read_half = io::BufReader::with_capacity(256 * 1024, read_half);
        let mut burst: Vec<u64> = Vec::new();
        loop {
            match read_frame(&mut read_half) {
                Ok(Some(f)) => {
                    match f {
                        Frame::Deliver { a, .. } if group == 0 => burst.push(a.fingerprint()),
                        Frame::DeliverBatch(batch) if group == 0 => {
                            burst.extend(batch.iter().map(|(_, a)| a.fingerprint()));
                        }
                        Frame::DeliverGroup { group: g, batch } if g == group => {
                            burst.extend(batch.iter().map(|(_, a)| a.fingerprint()));
                        }
                        // Other groups' deliveries and pushed `View`
                        // notifications are skipped — but they must still
                        // flush a pending burst below, or completions
                        // collected just before one strand until the next
                        // delivery arrives.
                        _ => {}
                    }
                    if burst.is_empty() || buffer_has_frame(&read_half) {
                        continue;
                    }
                    if tx.send((std::mem::take(&mut burst), Instant::now())).is_err() {
                        return;
                    }
                }
                Ok(None) | Err(_) => return,
            }
        }
    });

    let mut s = Session {
        stream,
        fw: FrameWriter::new(),
        rx,
        group,
        planned,
        next: 0,
        submitted: 0,
        pending: BTreeMap::new(),
        idle_timeout,
        last_progress: Instant::now(),
        finished_at: Instant::now(),
    };

    if warmup > 0 {
        let window = match mode {
            LoadMode::Closed { window } => window,
            LoadMode::Open { .. } => 32,
        };
        s.drive(LoadMode::Closed { window }, warmup.min(planned.len()), None)?;
        // Anything still outstanding belongs to the warm-up: forget it,
        // so a straggling delivery finds no pending entry and cannot
        // leak a cold-start latency into the timed histogram.
        s.pending.clear();
        s.submitted = 0;
    }

    let latency: Histogram = Histogram::new();
    let started = Instant::now();
    s.last_progress = started;
    s.drive(mode, planned.len(), Some(&latency))?;

    let delivered = latency.count();
    let elapsed =
        if delivered > 0 { s.finished_at.duration_since(started) } else { started.elapsed() };
    let _ = s.stream.shutdown(Shutdown::Both);
    let _ = reader.join();
    Ok(LoadReport { submitted: s.submitted, delivered, elapsed, latency_us: latency })
}

/// Whether the reader's buffer already holds one complete frame (so
/// draining it cannot block on the socket).
fn buffer_has_frame(r: &io::BufReader<TcpStream>) -> bool {
    let buf = r.buffer();
    let Some(hdr) = buf.get(..4) else { return false };
    let Ok(hdr) = <[u8; 4]>::try_from(hdr) else { return false };
    let len = u32::from_be_bytes(hdr) as usize;
    buf.len() >= 4usize.saturating_add(len)
}

/// The client side of one load session: the planned values, how far
/// submission has got, and the operations still awaiting delivery.
struct Session<'a> {
    stream: TcpStream,
    fw: FrameWriter,
    rx: mpsc::Receiver<(Vec<u64>, Instant)>,
    group: u32,
    planned: &'a [Value],
    next: usize,
    submitted: u64,
    /// Fingerprint → submit instant of every outstanding operation.
    pending: BTreeMap<u64, Instant>,
    idle_timeout: Duration,
    last_progress: Instant,
    finished_at: Instant,
}

impl Session<'_> {
    /// Submits up to `count` further planned values, stopping at index
    /// `hi`, as one coalesced batch: every frame is encoded into a
    /// reused buffer and the whole batch lands on the socket in a single
    /// vectored write.
    fn submit(&mut self, count: usize, hi: usize) -> io::Result<()> {
        let end = hi.min(self.next.saturating_add(count));
        let Some(batch) = self.planned.get(self.next..end).filter(|b| !b.is_empty()) else {
            return Ok(());
        };
        let now = Instant::now();
        for v in batch {
            self.pending.insert(v.fingerprint(), now);
        }
        self.next = end;
        self.submitted += batch.len() as u64;
        let batch = batch.to_vec();
        let frame = if self.group == 0 {
            Frame::SubmitBatch(batch)
        } else {
            Frame::SubmitGroup { group: self.group, batch }
        };
        self.fw.clear();
        self.fw.push(&frame);
        self.fw.write_to(&mut self.stream)
    }

    /// Waits up to `wait` for delivered fingerprints, then drains every
    /// burst already queued: batched tokens complete operations in
    /// bursts. Each outstanding operation among them completes, its
    /// latency recorded into `latency` if given. Returns whether anything
    /// arrived, or `None` once the reader has gone.
    fn collect(&mut self, wait: Duration, latency: Option<&Histogram>) -> Option<bool> {
        let mut burst = match self.rx.recv_timeout(wait) {
            Ok(b) => Some(b),
            Err(mpsc::RecvTimeoutError::Timeout) => return Some(false),
            Err(mpsc::RecvTimeoutError::Disconnected) => return None,
        };
        while let Some((xs, at)) = burst {
            for x in xs {
                if let Some(t0) = self.pending.remove(&x) {
                    if let Some(h) = latency {
                        h.record(at.duration_since(t0).as_micros() as u64);
                    }
                    self.finished_at = at;
                }
            }
            burst = self.rx.try_recv().ok();
        }
        self.last_progress = Instant::now();
        Some(true)
    }

    /// Drives the plan up to index `hi`. Closed loop: keeps `window`
    /// operations outstanding, refilling the window with one batched
    /// write per burst of completions. Open loop: submits at `rate`
    /// operations per second regardless of deliveries. Either way it
    /// returns once every submitted operation is back, or once no
    /// delivery arrived for the idle timeout while nothing more could be
    /// submitted.
    fn drive(&mut self, mode: LoadMode, hi: usize, latency: Option<&Histogram>) -> io::Result<()> {
        let (window, gap, wait) = match mode {
            LoadMode::Closed { window } => (window.max(1), None, Duration::from_millis(50)),
            LoadMode::Open { rate } => {
                let gap = Duration::from_nanos(1_000_000_000 / rate.max(1));
                (usize::MAX, Some(gap), Duration::from_millis(1))
            }
        };
        let mut due = Instant::now();
        loop {
            let mut count = window.saturating_sub(self.pending.len());
            if let Some(gap) = gap {
                // Everything that has come due since the last pass goes
                // out as one batch — at high offered rates this is the
                // difference between one syscall per op and one per tick.
                count = 0;
                while self.next + count < hi && Instant::now() >= due {
                    count += 1;
                    due += gap;
                }
            }
            self.submit(count, hi)?;
            if self.next >= hi && self.pending.is_empty() {
                return Ok(());
            }
            match self.collect(wait, latency) {
                Some(true) => {}
                Some(false) if self.last_progress.elapsed() <= self.idle_timeout => {}
                Some(false) if gap.is_some() && self.next < hi => {}
                _ => return Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let h: Histogram = Histogram::new();
        for i in 1..=100 {
            h.record(i);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), 50);
        // The shared histogram clamps percentile edges to the observed
        // extremes, so the ends are exact; interior percentiles are
        // bucketed (≤ 12.5% relative error at this resolution).
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 100);
        assert_eq!(h.max(), 100);
        let p50 = h.percentile(50.0);
        assert!((44..=57).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h: Histogram = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.max(), 0);
    }
}
