//! The benchmark's own client: KV commands planned from the seed,
//! submitted over the client protocol, matched against the delivery
//! push stream.
//!
//! Two disciplines, both bounded to one process and at most two
//! generator threads:
//!
//! - **closed loop** ([`closed`]): one thread per connection keeps a
//!   window of operations outstanding per group, writing refills and
//!   reading deliveries on the same socket. An operation's latency runs
//!   from the write that carried it; the generator's own delay is the
//!   time from reading a completion to writing its refill.
//! - **open loop** ([`open`]): a sender thread writes operation `i` at
//!   its due time `t0 + i/rate` and a reader thread matches deliveries.
//!   Latency runs from the *due* time, so a generator stall is charged
//!   to every operation it delays (no coordinated omission), and the
//!   sender's lateness behind the schedule is reported on its own.

use gcs_apps::KvCmd;
use gcs_model::{ProcId, Value};
use gcs_net::codec::{decode_payload, write_frame, Frame, FrameWriter, HelloKind, MAX_FRAME};
use gcs_shard::RouterCore;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys the KV commands draw from.
pub const KEYS: u64 = 64;

/// Every operation a trial may submit: its encoded command, its group,
/// and a fingerprint index for matching deliveries back to it.
pub struct Plan {
    pub values: Vec<Value>,
    pub groups: Vec<u32>,
    index: HashMap<u64, u32>,
    /// Nanoseconds spent in [`RouterCore::target`] while planning.
    pub route_ns: Vec<f64>,
}

impl Plan {
    /// Plans `per_group` commands for each of `groups` groups. Command
    /// seeds start at a point derived from `seed`; each command's group
    /// is the one the shard router picks for its key.
    pub fn new(seed: u64, router: &mut RouterCore, groups: u32, per_group: usize) -> Plan {
        let mut values = Vec::with_capacity(per_group * groups as usize);
        let mut owner = Vec::with_capacity(values.capacity());
        let mut counts = vec![0usize; groups as usize];
        let mut route_ns = Vec::new();
        // Tags stay below 2^48 so every command encodes to the same size
        // class regardless of the seed.
        let mut s = crate::sys::mix(seed) >> 24;
        while counts.iter().any(|&c| c < per_group) {
            let cmd = KvCmd::from_seed(s, KEYS);
            s += 1;
            let t0 = Instant::now();
            let target = router.target(cmd.key());
            route_ns.push(t0.elapsed().as_nanos() as f64);
            let Some((g, _)) = target else { continue };
            let Some(c) = counts.get_mut(g as usize) else { continue };
            if *c < per_group {
                *c += 1;
                values.push(cmd.encode());
                owner.push(g);
            }
        }
        let index = values.iter().enumerate().map(|(i, v)| (v.fingerprint(), i as u32)).collect();
        Plan { values, groups: owner, index, route_ns }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The operation index `v` was planned as, if any.
    pub fn lookup(&self, v: &Value) -> Option<usize> {
        let i = *self.index.get(&v.fingerprint())? as usize;
        (self.values.get(i)? == v).then_some(i)
    }

    /// Operation indices of group `g`, in plan order.
    pub fn ops_of(&self, g: u32) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.groups[i] == g).collect()
    }
}

/// What one load phase observed, per planned operation.
pub struct LoadOut {
    /// Latency origin: the write (closed loop) or the due time (open
    /// loop). `None` = never submitted.
    pub start: Vec<Option<Instant>>,
    /// When the delivery reached the client. `None` = not delivered.
    pub done: Vec<Option<Instant>>,
    /// Generator delay samples in nanoseconds (see the module docs).
    pub late_ns: Vec<f64>,
    /// First write of the phase.
    pub first_submit: Option<Instant>,
    /// CPU seconds the generator threads used (they report it
    /// themselves, having ended before the caller samples threads).
    pub cpu_s: f64,
    /// The phase's client connections, still open: closing one ends
    /// its reader thread in the node, so the caller closes them only
    /// after sampling CPU.
    pub conns: Vec<TcpStream>,
}

impl LoadOut {
    fn new(n: usize) -> LoadOut {
        LoadOut {
            start: vec![None; n],
            done: vec![None; n],
            late_ns: Vec::new(),
            first_submit: None,
            cpu_s: 0.0,
            conns: Vec::new(),
        }
    }

    /// Folds another connection's disjoint observations into this one.
    pub fn absorb(&mut self, other: LoadOut) {
        for (i, s) in other.start.into_iter().enumerate() {
            if s.is_some() {
                self.start[i] = s;
            }
        }
        for (i, d) in other.done.into_iter().enumerate() {
            if d.is_some() {
                self.done[i] = d;
            }
        }
        self.late_ns.extend(other.late_ns);
        self.cpu_s += other.cpu_s;
        self.conns.extend(other.conns);
        self.first_submit = match (self.first_submit, other.first_submit) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    /// Closes the phase's client connections.
    pub fn close(&mut self) {
        for c in self.conns.drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
    }

    pub fn attempted(&self) -> usize {
        self.start.iter().filter(|s| s.is_some()).count()
    }

    pub fn delivered(&self) -> usize {
        self.done.iter().filter(|d| d.is_some()).count()
    }

    pub fn last_done(&self) -> Option<Instant> {
        self.done.iter().flatten().max().copied()
    }

    /// Submit→delivery latencies in microseconds.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.start
            .iter()
            .zip(&self.done)
            .filter_map(|(s, d)| Some(d.as_ref()?.duration_since(*s.as_ref()?).as_secs_f64() * 1e6))
            .collect()
    }
}

/// Reads length-prefixed frames off a socket with a read timeout,
/// keeping a partially received frame across timeouts.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    fn new(stream: TcpStream, timeout: Duration) -> io::Result<FrameReader> {
        stream.set_read_timeout(Some(timeout))?;
        Ok(FrameReader { stream, buf: vec![0; 256 * 1024], start: 0, end: 0 })
    }

    /// A complete frame already in the buffer, if any.
    fn buffered(&mut self) -> io::Result<Option<Frame>> {
        let avail = &self.buf[self.start..self.end];
        let Some(hdr) = avail.get(..4) else { return Ok(None) };
        let len = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized frame"));
        }
        let Some(payload) = avail.get(4..4 + len) else {
            if 4 + len > self.buf.len() {
                self.buf.resize(4 + len, 0);
            }
            return Ok(None);
        };
        let frame = decode_payload(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        self.start += 4 + len;
        Ok(Some(frame))
    }

    /// The next frame; `Ok(None)` when the read timed out first.
    fn next(&mut self) -> io::Result<Option<Frame>> {
        loop {
            if let Some(f) = self.buffered()? {
                return Ok(Some(f));
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                let len = self.buf.len();
                self.buf.resize(len * 2, 0);
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The delivered values a push frame carries, with their group.
fn delivered_values(frame: Frame) -> Option<(u32, Vec<Value>)> {
    match frame {
        Frame::Deliver { a, .. } => Some((0, vec![a])),
        Frame::DeliverBatch(b) => Some((0, b.into_iter().map(|(_, a)| a).collect())),
        Frame::DeliverGroup { group, batch } => {
            Some((group, batch.into_iter().map(|(_, a)| a).collect()))
        }
        _ => None,
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(
        &mut stream,
        &Frame::Hello { node: ProcId(u32::MAX), generation: 0, kind: HelloKind::Client },
    )?;
    Ok(stream)
}

/// One closed-loop connection: the groups it drives, each with the
/// operation indices to submit in order.
pub struct Lane {
    pub group: u32,
    pub ops: Vec<usize>,
}

/// Drives `lanes` over one connection to `addr`, keeping `window`
/// operations outstanding per lane, until every operation is delivered
/// or nothing arrives for `idle`.
pub fn closed(
    addr: SocketAddr,
    plan: &Plan,
    lanes: &[Lane],
    window: usize,
    idle: Duration,
) -> io::Result<LoadOut> {
    let cpu0 = crate::sys::this_thread_cpu_s();
    let mut stream = connect(addr)?;
    let mut reader = FrameReader::new(stream.try_clone()?, Duration::from_millis(20))?;
    let mut out = LoadOut::new(plan.len());
    let mut next = vec![0usize; lanes.len()];
    let mut outstanding = vec![0usize; lanes.len()];
    let lane_of: HashMap<u32, usize> =
        lanes.iter().enumerate().map(|(i, l)| (l.group, i)).collect();
    let mut fw = FrameWriter::new();

    let mut refill = |out: &mut LoadOut,
                      next: &mut [usize],
                      outstanding: &mut [usize],
                      stream: &mut TcpStream,
                      trigger: Option<Instant>|
     -> io::Result<()> {
        fw.clear();
        let mut batches = Vec::new();
        for (li, lane) in lanes.iter().enumerate() {
            let room = window.saturating_sub(outstanding[li]).min(lane.ops.len() - next[li]);
            if room == 0 {
                continue;
            }
            let idxs = &lane.ops[next[li]..next[li] + room];
            next[li] += room;
            outstanding[li] += room;
            let batch: Vec<Value> = idxs.iter().map(|&i| plan.values[i].clone()).collect();
            fw.push(&Frame::SubmitGroup { group: lane.group, batch });
            batches.push(idxs);
        }
        if batches.is_empty() {
            return Ok(());
        }
        let now = Instant::now();
        fw.write_to(stream)?;
        out.first_submit.get_or_insert(now);
        for idxs in batches {
            for &i in idxs {
                out.start[i] = Some(now);
            }
        }
        if let Some(t) = trigger {
            out.late_ns.push(now.duration_since(t).as_nanos() as f64);
        }
        Ok(())
    };

    refill(&mut out, &mut next, &mut outstanding, &mut stream, None)?;
    let mut last_progress = Instant::now();
    while outstanding.iter().any(|&o| o > 0) {
        let Some(frame) = reader.next()? else {
            if last_progress.elapsed() > idle {
                break;
            }
            continue;
        };
        let at = Instant::now();
        let mut frame = Some(frame);
        // Drain every complete frame already buffered, then refill once.
        while let Some(f) = frame {
            if let Some((g, vals)) = delivered_values(f) {
                if let Some(&li) = lane_of.get(&g) {
                    for v in &vals {
                        if let Some(i) = plan.lookup(v) {
                            if out.start[i].is_some() && out.done[i].is_none() {
                                out.done[i] = Some(at);
                                outstanding[li] -= 1;
                                last_progress = at;
                            }
                        }
                    }
                }
            }
            frame = reader.buffered()?;
        }
        refill(&mut out, &mut next, &mut outstanding, &mut stream, Some(at))?;
    }
    out.conns.push(stream);
    out.cpu_s = crate::sys::this_thread_cpu_s() - cpu0;
    Ok(out)
}

/// Shared progress of an open-loop phase, for a controller thread that
/// injects faults at points of the delivered history.
#[derive(Default)]
pub struct Progress {
    /// Operations delivered back to the client so far.
    pub delivered: AtomicU64,
    /// Set by the controller to end submission early (the phase then
    /// waits for outstanding operations as usual).
    pub stop: AtomicBool,
}

/// Drives the group-0 operations `ops` open loop at `rate` per second
/// over one connection to `addr`: the calling thread writes each
/// operation at its due time, a `gp-load` reader thread matches
/// deliveries. Ends when every
/// submitted operation is delivered or nothing arrives for `idle` after
/// submission ended.
pub fn open(
    addr: SocketAddr,
    plan: &Plan,
    ops: &[usize],
    rate: f64,
    idle: Duration,
    progress: &Arc<Progress>,
) -> io::Result<LoadOut> {
    let mut stream = connect(addr)?;
    let mut reader = FrameReader::new(stream.try_clone()?, Duration::from_millis(20))?;
    let gap = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |k: usize| t0 + gap.mul_f64(k as f64);
    let sent_all = AtomicU64::new(u64::MAX);
    let mut in_phase = vec![false; plan.len()];
    for &i in ops {
        in_phase[i] = true;
    }

    // The sender runs on the calling thread, the reader beside it.
    let (sender, recv, sender_cpu_s) = std::thread::scope(|s| {
        let recv = std::thread::Builder::new()
            .name("gp-load".into())
            .spawn_scoped(s, || -> io::Result<(Vec<Option<Instant>>, f64)> {
                let cpu0 = crate::sys::this_thread_cpu_s();
                let mut done = vec![None; plan.len()];
                let mut delivered = 0u64;
                let mut last_progress = Instant::now();
                loop {
                    // ordering: SeqCst — a lone count handed over by the
                    // sender; no other data rides on it.
                    let sent = sent_all.load(Ordering::SeqCst);
                    if delivered >= sent {
                        break;
                    }
                    if sent != u64::MAX && last_progress.elapsed() > idle {
                        break;
                    }
                    let Some(frame) = reader.next()? else { continue };
                    let at = Instant::now();
                    let Some((0, vals)) = delivered_values(frame) else { continue };
                    for v in &vals {
                        if let Some(i) = plan.lookup(v) {
                            if in_phase[i] && done[i].is_none() {
                                done[i] = Some(at);
                                delivered += 1;
                                last_progress = at;
                            }
                        }
                    }
                    progress.delivered.store(delivered, Ordering::SeqCst);
                }
                Ok((done, crate::sys::this_thread_cpu_s() - cpu0))
            })
            .expect("spawn the load reader");
        let cpu0 = crate::sys::this_thread_cpu_s();
        let sender = (|| -> io::Result<(Vec<Option<Instant>>, Vec<f64>)> {
            let mut start = vec![None; plan.len()];
            let mut late = Vec::with_capacity(ops.len());
            let mut fw = FrameWriter::new();
            let mut k = 0;
            while k < ops.len() && !progress.stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                if due(k) > now {
                    std::thread::sleep(due(k) - now);
                    continue;
                }
                // Everything due by now goes out in one write.
                let mut batch = Vec::new();
                let first = k;
                while k < ops.len() && due(k) <= now {
                    batch.push(plan.values[ops[k]].clone());
                    k += 1;
                }
                fw.clear();
                fw.push(&Frame::SubmitBatch(batch));
                fw.write_to(&mut stream)?;
                let sent = Instant::now();
                for (j, &i) in ops.iter().enumerate().take(k).skip(first) {
                    start[i] = Some(due(j));
                    late.push(sent.duration_since(due(j)).as_nanos() as f64);
                }
            }
            Ok((start, late))
        })();
        // Hand the reader its stopping point even if the sender failed.
        let sent = sender.as_ref().map_or(0, |(start, _)| start.iter().flatten().count());
        sent_all.store(sent as u64, Ordering::SeqCst);
        let recv = recv.join();
        (sender, recv, crate::sys::this_thread_cpu_s() - cpu0)
    });
    let (start, late_ns) = sender?;
    let (done, reader_cpu_s) = recv.map_err(|_| io::Error::other("load reader panicked"))??;
    let first_submit = start.iter().flatten().min().copied();
    Ok(LoadOut {
        start,
        done,
        late_ns,
        first_submit,
        cpu_s: sender_cpu_s + reader_cpu_s,
        conns: vec![stream],
    })
}
