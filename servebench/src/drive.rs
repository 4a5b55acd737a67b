//! The open-loop generator: one writer thread sends pre-encoded Tick
//! lines at their due times over the daemon's one connection, one reader
//! thread stamps the replies as they arrive. Nothing is decoded until the
//! run is over.

use crate::daemon::{cpu_seconds, machine_cpu, Daemon, Inbox};
use crate::plan::{Item, Lines};
use std::io::Write;
use std::time::{Duration, Instant};

/// Head start between planning the phase and its first due time.
const LEAD: Duration = Duration::from_millis(20);

/// What one driven phase produced.
#[derive(Debug)]
pub struct Driven {
    /// Replies, stamped.
    pub inbox: Inbox,
    /// Start of the phase: item due times count from here.
    pub t0: Instant,
    /// Send time minus due time of each item, in ns.
    pub lateness_ns: Vec<u64>,
    /// Samples at each segment boundary, the last one taken after every
    /// flush barrier returned.
    pub marks: Vec<Mark>,
}

/// One sample at a segment boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Items sent before the boundary.
    pub sent: usize,
    /// Daemon CPU seconds so far.
    pub cpu_s: f64,
    /// Machine `(total, steal)` jiffies so far.
    pub jiffies: (u64, u64),
}

impl Mark {
    fn take(sent: usize, pid: u32) -> Result<Mark, String> {
        Ok(Mark {
            sent,
            cpu_s: cpu_seconds(pid)?,
            jiffies: machine_cpu()?,
        })
    }
}

/// Sends `items` (lines of `lines`, in order) at their due times, then
/// `tail` at once, and reads replies until `flushes` `FlushAck`s arrived.
/// With `segments > 0`, the daemon's CPU time is sampled that many times
/// over the schedule's span `span_ns`.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    daemon: &mut Daemon,
    lines: &Lines,
    items: &[Item],
    tail: &Lines,
    inbox: Inbox,
    flushes: usize,
    segments: usize,
    span_ns: u64,
) -> Result<Driven, String> {
    let mut reader_stream = daemon
        .stream
        .try_clone()
        .map_err(|e| format!("clone connection: {e}"))?;
    let pid = daemon.pid();
    let writer_stream = &mut daemon.stream;
    let t0 = Instant::now() + LEAD;
    let (sent, read) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            send_on_schedule(
                writer_stream,
                lines,
                items,
                tail,
                t0,
                pid,
                segments,
                span_ns,
            )
        });
        let reader = scope.spawn(move || {
            let mut inbox = inbox;
            inbox
                .read_until(&mut reader_stream, |ib| ib.flush_acks >= flushes)
                .map(|()| inbox)
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let (lateness_ns, mut marks) = sent?;
    let inbox = read?;
    if segments > 0 {
        marks.push(Mark::take(items.len(), pid)?);
    }
    Ok(Driven {
        inbox,
        t0,
        lateness_ns,
        marks,
    })
}

type Sent = Result<(Vec<u64>, Vec<Mark>), String>;

/// Narrows this thread's timer slack to 1 us (the default is 50 us), so
/// the writer wakes at a tick's due time rather than up to 50 us after.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and changes
    // only the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000 as std::ffi::c_ulong);
    }
}

#[allow(clippy::too_many_arguments)]
fn send_on_schedule(
    stream: &mut std::net::TcpStream,
    lines: &Lines,
    items: &[Item],
    tail: &Lines,
    t0: Instant,
    pid: u32,
    segments: usize,
    span_ns: u64,
) -> Sent {
    tighten_timer_slack();
    let mut lateness = vec![0u64; items.len()];
    let mut marks = Vec::with_capacity(segments + 1);
    let segment_ns = if segments > 0 {
        span_ns / segments as u64
    } else {
        u64::MAX
    };
    let mut next_mark = 0u64;
    let mut i = 0;
    while i < items.len() {
        let now = Instant::now();
        let due = t0 + Duration::from_nanos(items[i].due_ns);
        if now < due {
            std::thread::sleep(due - now);
            continue;
        }
        let now_ns = now.duration_since(t0).as_nanos() as u64;
        if segments > 0 && marks.len() < segments && now_ns >= next_mark {
            marks.push(Mark::take(i, pid)?);
            next_mark = next_mark.saturating_add(segment_ns);
        }
        let mut j = i;
        while j < items.len() && items[j].due_ns <= now_ns {
            lateness[j] = now_ns - items[j].due_ns;
            j += 1;
        }
        let start = if i == 0 { 0 } else { lines.ends[i - 1] };
        stream
            .write_all(&lines.bytes[start..lines.ends[j - 1]])
            .map_err(|e| format!("send ticks: {e}"))?;
        i = j;
    }
    stream
        .write_all(&tail.bytes)
        .map_err(|e| format!("send flush barrier: {e}"))?;
    Ok((lateness, marks))
}
