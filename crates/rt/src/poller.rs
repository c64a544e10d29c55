//! Readiness notification and batched datagram I/O for the runtime's
//! worker loops.
//!
//! Three building blocks, each with a Linux fast path and a portable
//! fallback so the crate builds everywhere the standard library does:
//!
//! * [`Poller`] — an `epoll` instance the worker parks in until the next
//!   [`TimerWheel`](adamant_proto::TimerWheel) deadline or the first
//!   readable socket, whichever comes first, and which names the sockets
//!   that became readable so the worker reads only those. Off Linux,
//!   `wait` degrades to a capped sleep that reports every socket ready.
//! * [`RecvBatch`] — drains a socket with one `recvmmsg` call per batch
//!   instead of one `recv_from` syscall per datagram.
//! * [`SendBatch`] — flushes a worker's coalesced outbox with one
//!   `sendmmsg` call per batch instead of one `send_to` per datagram.
//!
//! All `unsafe` in this crate lives in the [`sys`] module below: direct
//! `extern "C"` bindings against libc symbols (the workspace carries no
//! external crates, so there is no `libc`/`mio` to lean on). Every
//! syscall result is translated to `io::Error` immediately; nothing
//! outside this file sees a raw return code.
//!
//! ## Timeout precision
//!
//! Protocol timers are armed at microsecond precision, so
//! [`Poller::wait`] is **one wait**: `epoll_pwait2`, whose timeout is a
//! nanosecond `timespec`. A park of any length ends at its deadline *or*
//! at the first datagram — there is no separate short-wait path that
//! sleeps through arrivals, and no millisecond rounding. (The call is
//! made through `syscall(2)` so the crate links against a glibc older
//! than the wrapper; a kernel older than 5.11 answers `ENOSYS` once and
//! the poller then uses `epoll_wait` with the timeout rounded *up* to
//! whole milliseconds for the rest of its life — timers fire late by
//! under a millisecond there, datagrams still end the wait.)
//!
//! How late a timed-out park may return is the calling thread's *timer
//! slack*: the kernel may delay an `hrtimer` by up to that much to share
//! a wake-up with a neighbour. Threads inherit 50 µs; a mux worker sets
//! [`WORKER_TIMER_SLACK`] = 25 µs on itself
//! ([`set_worker_timer_slack`]). The number is a point on a measured
//! curve, not a guess. On the reference box (2 vCPUs, loopback,
//! `pubsub_bench` `echo_paced`: 100 000 msgs/s, one datagram each) a
//! park/unpark costs about 10 µs of worker CPU, so
//! `cpu_us_per_op ≈ 2.5 + 10 × parks/msg` and
//! `relate2_us ≈ 0.8 × park cycle + 5` (medians of three 15 s runs):
//!
//! | wait | `relate2_us` | `cpu_us_per_op` |
//! |---|---|---|
//! | uninterruptible sleep under 1 ms, slack 50 µs (before) | 44.8 | 4.69 |
//! | `epoll_pwait2`, slack 50 µs (inherited) | 46.2 | 4.68 |
//! | `epoll_pwait2`, slack 30 µs | 32.9 | 5.36 |
//! | `epoll_pwait2`, slack 25 µs (**chosen**) | 30.1 | 5.57 |
//! | `epoll_pwait2`, slack 20 µs | 28.4 | 5.98 (past the benchmark's 25 % bound) |
//! | `epoll_pwait2`, slack 1 ns | 19.2 | 8.70 (worker ~90 % busy) |
//!
//! Less slack buys latency with wake-ups; 25 µs is the smallest of these
//! that keeps the CPU cost inside the bound with room for run-to-run
//! spread (+12 % and +17.5 % over two sets of ten alternating pairs). In
//! the sizing runs a spin-then-park window (2–6 µs) bought at most 3 µs
//! at equal CPU for a second constant and was rejected.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Cap on the off-Linux sleep: the worst-case reaction latency to a
/// datagram that arrives while the worker is asleep.
#[cfg(not(target_os = "linux"))]
const FALLBACK_SLEEP: Duration = Duration::from_millis(1);

/// Most ready sockets one wait reports; epoll is level-triggered, so the
/// rest surface on the next wait.
#[cfg(target_os = "linux")]
const MAX_EVENTS: usize = 64;

/// How late the kernel may fire a mux worker's park timeout in exchange
/// for sharing a wake-up — half the 50 µs a thread inherits. See
/// "Timeout precision" in the module docs for the curve this sits on.
#[cfg(target_os = "linux")]
const WORKER_TIMER_SLACK: Duration = Duration::from_micros(25);

/// Largest UDP payload a batch slot accepts; datagrams beyond this are
/// truncated by the kernel (the codec then rejects the frame).
pub(crate) const DATAGRAM_BUF_BYTES: usize = 65536;

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    //! Direct libc bindings. Struct layouts mirror glibc on Linux; the
    //! `epoll_event` packing is x86_64-specific (other arches use the
    //! natural C layout).

    use std::ffi::{c_long, c_ulong};
    use std::io;
    use std::net::SocketAddr;
    use std::time::Duration;

    pub const ENOSYS: i32 = 38;

    /// `epoll_pwait2` in the syscall table every architecture has shared
    /// since Linux 5.x (MIPS offsets its tables, so 441 is no call there
    /// and the `ENOSYS` fallback takes over).
    const SYS_EPOLL_PWAIT2: c_long = 441;
    const PR_SET_TIMERSLACK: i32 = 29;

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLLIN: u32 = 0x1;

    pub const AF_INET: u16 = 2;
    pub const AF_INET6: u16 = 10;

    pub const SOL_SOCKET: i32 = 1;
    pub const SO_SNDBUF: i32 = 7;
    pub const SO_RCVBUF: i32 = 8;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Debug, Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    impl EpollEvent {
        pub const ZERO: EpollEvent = EpollEvent { events: 0, data: 0 };
    }

    /// `struct __kernel_timespec`: 64-bit fields on every architecture.
    #[repr(C)]
    struct KernelTimespec {
        sec: i64,
        nsec: i64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub base: *mut u8,
        pub len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MsgHdr {
        pub name: *mut u8,
        pub namelen: u32,
        pub iov: *mut IoVec,
        pub iovlen: usize,
        pub control: *mut u8,
        pub controllen: usize,
        pub flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MMsgHdr {
        pub hdr: MsgHdr,
        pub len: u32,
    }

    /// Space for a `sockaddr_in` (16 bytes) or `sockaddr_in6` (28
    /// bytes), 8-aligned like the kernel expects.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub struct SockAddrStorage {
        pub data: [u8; 28],
        pub len: u32,
    }

    impl SockAddrStorage {
        pub const ZERO: SockAddrStorage = SockAddrStorage {
            data: [0; 28],
            len: 0,
        };

        /// Encodes `addr` into kernel `sockaddr` layout.
        pub fn encode(addr: &SocketAddr) -> SockAddrStorage {
            let mut out = SockAddrStorage::ZERO;
            match addr {
                SocketAddr::V4(v4) => {
                    out.data[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                    out.data[2..4].copy_from_slice(&v4.port().to_be_bytes());
                    out.data[4..8].copy_from_slice(&v4.ip().octets());
                    out.len = 16;
                }
                SocketAddr::V6(v6) => {
                    out.data[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                    out.data[2..4].copy_from_slice(&v6.port().to_be_bytes());
                    out.data[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
                    out.data[8..24].copy_from_slice(&v6.ip().octets());
                    out.data[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                    out.len = 28;
                }
            }
            out
        }
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn recvmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
        fn syscall(number: c_long, ...) -> c_long;
        fn prctl(option: i32, ...) -> i32;
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create() -> io::Result<i32> {
        // SAFETY: epoll_create1 takes no pointers.
        check(unsafe { epoll_create1(EPOLL_CLOEXEC) })
    }

    /// Watches `fd` for readability; a wait reports it as `data`.
    pub fn epoll_add(epfd: i32, fd: i32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN,
            data,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        check(unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(drop)
    }

    /// `epoll_pwait2` with no signal mask: like `epoll_wait`, but the
    /// timeout is a nanosecond `timespec`.
    pub fn epoll_poll(
        epfd: i32,
        events: &mut [EpollEvent],
        timeout: Duration,
    ) -> io::Result<usize> {
        let ts = KernelTimespec {
            sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `events` is a live, writable slice of at least one slot
        // and maxevents matches its length; `ts` outlives the call. The
        // mask is null, so the kernel ignores the mask size. Every
        // variadic argument is passed register-wide, as `syscall` reads
        // them.
        let n = unsafe {
            syscall(
                SYS_EPOLL_PWAIT2,
                c_long::from(epfd),
                events.as_mut_ptr(),
                events.len() as c_long,
                &ts as *const KernelTimespec,
                std::ptr::null::<u8>(),
                0usize,
            )
        };
        check(n as i32).map(|n| n as usize)
    }

    /// The pre-5.11 wait: `epoll_wait`, whole milliseconds only.
    pub fn epoll_poll_ms(
        epfd: i32,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        // SAFETY: `events` is a live, writable slice of at least one slot;
        // maxevents matches its length.
        let n = check(unsafe {
            epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        })?;
        Ok(n as usize)
    }

    /// Sets the calling thread's timer slack. Best-effort: a refusal
    /// (a seccomp filter, say) leaves the inherited slack in place.
    pub fn set_timer_slack(slack: Duration) {
        // SAFETY: PR_SET_TIMERSLACK takes one integer and no pointers.
        unsafe { prctl(PR_SET_TIMERSLACK, slack.as_nanos() as c_ulong) };
    }

    pub fn close_fd(fd: i32) {
        // SAFETY: the Poller owns this descriptor exclusively.
        unsafe { close(fd) };
    }

    pub fn recv_mmsg(fd: i32, msgvec: &mut [MMsgHdr]) -> io::Result<usize> {
        // SAFETY: every msghdr's iov/name pointers were populated from
        // live buffers owned by the caller for the duration of the call.
        let n = check(unsafe {
            recvmmsg(
                fd,
                msgvec.as_mut_ptr(),
                msgvec.len() as u32,
                0,
                std::ptr::null_mut(),
            )
        })?;
        Ok(n as usize)
    }

    pub fn send_mmsg(fd: i32, msgvec: &mut [MMsgHdr]) -> io::Result<usize> {
        // SAFETY: as for recv_mmsg — all pointers reference caller-owned
        // buffers that outlive the call.
        let n = check(unsafe { sendmmsg(fd, msgvec.as_mut_ptr(), msgvec.len() as u32, 0) })?;
        Ok(n as usize)
    }

    pub fn set_buf_size(fd: i32, name: i32, bytes: i32) -> io::Result<()> {
        let value = bytes.to_ne_bytes();
        // SAFETY: `value` is a live 4-byte int for the duration of the
        // call, which is the size SO_SNDBUF/SO_RCVBUF expect.
        check(unsafe { setsockopt(fd, SOL_SOCKET, name, value.as_ptr(), value.len() as u32) })
            .map(drop)
    }
}

#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;

/// Readiness poller a worker parks in while it has nothing due.
///
/// On Linux this is an `epoll` instance holding every socket the worker
/// owns; [`wait`](Poller::wait) blocks until a registered socket becomes
/// readable or the timeout elapses, and [`ready`](Poller::ready) names the
/// readable ones. Elsewhere `wait` sleeps (capped at 1 ms) and reports
/// every socket ready, so callers keep one loop.
#[derive(Debug)]
pub(crate) struct Poller {
    #[cfg(target_os = "linux")]
    epfd: i32,
    /// The buffer a wait reports into, one slot per registered socket
    /// (at least one, at most [`MAX_EVENTS`]), reused across waits.
    #[cfg(target_os = "linux")]
    events: Vec<sys::EpollEvent>,
    /// Cleared for good by the first `ENOSYS` from `epoll_pwait2`.
    #[cfg(target_os = "linux")]
    ns_timeouts: bool,
    registered: usize,
    /// Registration indices the last wait found readable.
    ready: Vec<usize>,
}

impl Poller {
    /// Creates an empty poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            #[cfg(target_os = "linux")]
            epfd: sys::epoll_create()?,
            #[cfg(target_os = "linux")]
            events: vec![sys::EpollEvent::ZERO],
            #[cfg(target_os = "linux")]
            ns_timeouts: true,
            registered: 0,
            ready: Vec::new(),
        })
    }

    /// Adds a socket to the interest set (read readiness) under the next
    /// registration index: the first socket registered is 0, and so on.
    /// The socket must stay alive as long as the poller; deregistration
    /// happens implicitly when the socket closes.
    pub fn register(&mut self, sock: &UdpSocket) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            sys::epoll_add(self.epfd, sock.as_raw_fd(), self.registered as u64)?;
            if self.events.len() < (self.registered + 1).min(MAX_EVENTS) {
                self.events.push(sys::EpollEvent::ZERO);
            }
        }
        #[cfg(not(target_os = "linux"))]
        let _ = sock;
        self.registered += 1;
        Ok(())
    }

    /// Blocks until a registered socket is readable or `timeout` passes,
    /// whichever is first; a zero timeout only queries. Returns the number
    /// of ready sockets (0 on timeout) and leaves their registration
    /// indices in [`ready`](Poller::ready). A wait interrupted by a signal
    /// reports 0 ready.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<usize> {
        self.ready.clear();
        #[cfg(target_os = "linux")]
        {
            let polled = loop {
                if !self.ns_timeouts {
                    let ms = timeout.as_nanos().div_ceil(1_000_000);
                    let ms = i32::try_from(ms).unwrap_or(i32::MAX);
                    break sys::epoll_poll_ms(self.epfd, &mut self.events, ms);
                }
                match sys::epoll_poll(self.epfd, &mut self.events, timeout) {
                    Err(e) if e.raw_os_error() == Some(sys::ENOSYS) => self.ns_timeouts = false,
                    polled => break polled,
                }
            };
            match polled {
                Ok(n) => {
                    let events = &self.events[..n];
                    self.ready.extend(events.iter().map(|ev| ev.data as usize));
                }
                Err(e) if interrupted(&e) => {}
                Err(e) => return Err(e),
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            if !timeout.is_zero() {
                std::thread::sleep(timeout.min(FALLBACK_SLEEP)); // off-Linux only
            }
            self.ready.extend(0..self.registered);
        }
        Ok(self.ready.len())
    }

    /// Registration indices of the sockets the last [`wait`](Poller::wait)
    /// found readable (every socket, off Linux).
    pub fn ready(&self) -> &[usize] {
        &self.ready
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        sys::close_fd(self.epfd);
    }
}

/// Gives the calling thread the mux worker's timer slack
/// ([`WORKER_TIMER_SLACK`]), so that how late its parks may end is a
/// stated number. No-op off Linux.
pub(crate) fn set_worker_timer_slack() {
    #[cfg(target_os = "linux")]
    sys::set_timer_slack(WORKER_TIMER_SLACK);
}

/// A reusable receive batch: one `recvmmsg` call fills up to `batch`
/// datagram slots. The portable fallback loops `recv_from` into the same
/// slots, so callers see identical semantics either way.
pub(crate) struct RecvBatch {
    bufs: Vec<Box<[u8]>>,
    lens: Vec<usize>,
    filled: usize,
    /// One iovec per slot, pointing at that slot's heap buffer. Only held
    /// (never resized, never read here) so the `hdrs` pointers into it
    /// stay valid.
    #[cfg(target_os = "linux")]
    _iovs: Vec<sys::IoVec>,
    /// One `mmsghdr` per slot, built once: `recvmmsg` only writes the
    /// output fields (`len`, flags) and leaves the iov pointers alone.
    #[cfg(target_os = "linux")]
    hdrs: Vec<sys::MMsgHdr>,
    /// ICMP-unreachable noise absorbed while receiving (connection
    /// refused/reset); the caller folds this into its soft-error stat.
    pub soft_errors: u64,
}

impl RecvBatch {
    /// A batch of `batch` slots, each [`DATAGRAM_BUF_BYTES`] long.
    pub fn new(batch: usize) -> RecvBatch {
        let batch = batch.max(1);
        // Only the Linux arm below takes `iter_mut` of it.
        #[cfg_attr(not(target_os = "linux"), allow(unused_mut))]
        let mut bufs: Vec<Box<[u8]>> = (0..batch)
            .map(|_| vec![0u8; DATAGRAM_BUF_BYTES].into_boxed_slice())
            .collect();
        #[cfg(target_os = "linux")]
        let mut iovs: Vec<sys::IoVec> = bufs
            .iter_mut()
            .map(|b| sys::IoVec {
                base: b.as_mut_ptr(),
                len: b.len(),
            })
            .collect();
        #[cfg(target_os = "linux")]
        let hdrs = iovs
            .iter_mut()
            .map(|iov| sys::MMsgHdr {
                hdr: sys::MsgHdr {
                    name: std::ptr::null_mut(),
                    namelen: 0,
                    iov,
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            })
            .collect();
        RecvBatch {
            bufs,
            lens: vec![0; batch],
            filled: 0,
            #[cfg(target_os = "linux")]
            _iovs: iovs,
            #[cfg(target_os = "linux")]
            hdrs,
            soft_errors: 0,
        }
    }

    /// Drains up to one batch of datagrams from `sock` (which must be
    /// non-blocking). `Ok(0)` means the socket had nothing pending; hard
    /// errors surface as `Err`, ICMP noise is counted and skipped.
    pub fn recv(&mut self, sock: &UdpSocket) -> io::Result<usize> {
        self.filled = 0;
        #[cfg(target_os = "linux")]
        {
            loop {
                match sys::recv_mmsg(sock.as_raw_fd(), &mut self.hdrs) {
                    Ok(n) => {
                        for (len, h) in self.lens.iter_mut().zip(&self.hdrs[..n]) {
                            *len = h.len as usize;
                        }
                        self.filled = n;
                        return Ok(n);
                    }
                    Err(e) if would_block(&e) => return Ok(0),
                    Err(e) if interrupted(&e) => continue,
                    Err(e) if soft_io_error(&e) => {
                        self.soft_errors += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            while self.filled < self.bufs.len() {
                match sock.recv_from(&mut self.bufs[self.filled]) {
                    Ok((n, _)) => {
                        self.lens[self.filled] = n;
                        self.filled += 1;
                    }
                    Err(e) if would_block(&e) => break,
                    Err(e) if interrupted(&e) => {}
                    Err(e) if soft_io_error(&e) => self.soft_errors += 1,
                    Err(e) => return Err(e),
                }
            }
            Ok(self.filled)
        }
    }

    /// The datagrams the last [`recv`](RecvBatch::recv) produced.
    pub fn datagrams(&self) -> impl Iterator<Item = &[u8]> {
        self.bufs[..self.filled]
            .iter()
            .zip(&self.lens)
            .map(|(buf, &len)| &buf[..len])
    }
}

/// A reusable send batch: one `sendmmsg` call flushes up to its capacity
/// of `(destination, payload)` pairs from a worker's coalesced outbox.
pub(crate) struct SendBatch {
    capacity: usize,
    #[cfg(target_os = "linux")]
    addrs: Vec<sys::SockAddrStorage>,
    #[cfg(target_os = "linux")]
    iovs: Vec<sys::IoVec>,
    #[cfg(target_os = "linux")]
    hdrs: Vec<sys::MMsgHdr>,
}

impl SendBatch {
    /// A batch flushing at most `batch` datagrams per call.
    pub fn new(batch: usize) -> SendBatch {
        let capacity = batch.max(1);
        SendBatch {
            capacity,
            #[cfg(target_os = "linux")]
            addrs: vec![sys::SockAddrStorage::ZERO; capacity],
            #[cfg(target_os = "linux")]
            iovs: Vec::with_capacity(capacity),
            #[cfg(target_os = "linux")]
            hdrs: Vec::with_capacity(capacity),
        }
    }

    /// How many datagrams one call can flush.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sends the leading `(destination, payload)` pairs of `msgs` (up to
    /// capacity) through `sock`, returning how many datagrams the kernel
    /// accepted. Taking an iterator lets a caller flush straight out of
    /// its outbox without collecting the pairs first.
    ///
    /// `Ok(0)` means the socket is flow-blocked (or `msgs` was empty) —
    /// park and retry later; a call interrupted by a signal is retried
    /// here, never reported as flow control. An `Err` always refers to the
    /// *first unsent* message, so a caller that drops that message and
    /// retries makes progress (this is how ICMP-unreachable noise is
    /// absorbed upstream).
    pub fn send<'a>(
        &mut self,
        sock: &UdpSocket,
        msgs: impl IntoIterator<Item = (SocketAddr, &'a [u8])>,
    ) -> io::Result<usize> {
        let msgs = msgs.into_iter().take(self.capacity);
        #[cfg(target_os = "linux")]
        {
            self.iovs.clear();
            self.hdrs.clear();
            for (i, (addr, payload)) in msgs.enumerate() {
                self.addrs[i] = sys::SockAddrStorage::encode(&addr);
                self.iovs.push(sys::IoVec {
                    // sendmmsg never writes through the iov; the mut cast
                    // exists only because iovec is shared with recvmmsg.
                    base: payload.as_ptr() as *mut u8,
                    len: payload.len(),
                });
            }
            let n = self.iovs.len();
            if n == 0 {
                return Ok(0);
            }
            for i in 0..n {
                self.hdrs.push(sys::MMsgHdr {
                    hdr: sys::MsgHdr {
                        name: self.addrs[i].data.as_mut_ptr(),
                        namelen: self.addrs[i].len,
                        iov: &mut self.iovs[i],
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                });
            }
            loop {
                match sys::send_mmsg(sock.as_raw_fd(), &mut self.hdrs) {
                    Ok(sent) => return Ok(sent),
                    Err(e) if would_block(&e) => return Ok(0),
                    Err(e) if interrupted(&e) => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            let mut sent = 0;
            for (addr, payload) in msgs {
                match retry_interrupted(|| sock.send_to(payload, addr)) {
                    Ok(_) => sent += 1,
                    Err(e) if would_block(&e) => break,
                    // Partial progress: report what went through; the
                    // error re-surfaces on the retry as message zero.
                    Err(_) if sent > 0 => break,
                    Err(e) => return Err(e),
                }
            }
            Ok(sent)
        }
    }
}

/// Grows `sock`'s kernel send and receive buffers to `bytes` (clamped by
/// `net.core.{r,w}mem_max` — the kernel silently caps, so this is
/// best-effort by construction). A shared socket absorbs whole bursts of
/// multiplexed traffic between drain passes; the ~208 KiB default drops
/// datagrams under exactly the coalesced load the mux runtime generates.
/// No-op off Linux.
pub(crate) fn set_socket_buffers(sock: &UdpSocket, bytes: usize) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let bytes = bytes.min(i32::MAX as usize) as i32;
        sys::set_buf_size(sock.as_raw_fd(), sys::SO_RCVBUF, bytes)?;
        sys::set_buf_size(sock.as_raw_fd(), sys::SO_SNDBUF, bytes)?;
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (sock, bytes);
    Ok(())
}

/// Flow-control kinds: the socket simply has no room / no data.
pub(crate) fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A syscall cut short by a signal (`EINTR`): nothing happened, so the
/// call is simply reissued. Not flow control — classing it as such made a
/// signal look like a full socket buffer (a bogus `backpressure_stalls`
/// and a parked worker).
fn interrupted(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Interrupted
}

/// Runs one socket call, reissuing it for as long as a signal cuts it
/// short.
#[cfg(not(target_os = "linux"))]
fn retry_interrupted<T>(mut call: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match call() {
            Err(e) if interrupted(&e) => {}
            outcome => return outcome,
        }
    }
}

/// ICMP port-unreachable noise a UDP runtime must absorb, not die on.
pub(crate) fn soft_io_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused | io::ErrorKind::ConnectionReset
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let b_addr = b.local_addr().unwrap();
        (a, b, b_addr)
    }

    #[test]
    fn batched_send_and_recv_round_trip() {
        let (tx, rx, rx_addr) = pair();
        let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; (i as usize + 1) * 3]).collect();
        let msgs: Vec<(SocketAddr, &[u8])> =
            payloads.iter().map(|p| (rx_addr, p.as_slice())).collect();

        let mut sender = SendBatch::new(8);
        let mut sent = 0;
        while sent < msgs.len() {
            let n = sender.send(&tx, msgs[sent..].iter().copied()).unwrap();
            assert!(n > 0, "loopback send should not flow-block here");
            sent += n;
        }

        let mut batch = RecvBatch::new(8);
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut got: Vec<Vec<u8>> = Vec::new();
        while got.len() < payloads.len() && Instant::now() < deadline {
            let n = batch.recv(&rx).unwrap();
            if n == 0 {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            got.extend(batch.datagrams().map(<[u8]>::to_vec));
        }
        got.sort();
        let mut want = payloads.clone();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn small_batch_capacity_still_drains_everything() {
        let (tx, rx, rx_addr) = pair();
        let payloads: Vec<Vec<u8>> = (0u8..7).map(|i| vec![i]).collect();
        let msgs: Vec<(SocketAddr, &[u8])> =
            payloads.iter().map(|p| (rx_addr, p.as_slice())).collect();
        let mut sender = SendBatch::new(2);
        assert_eq!(sender.capacity(), 2);
        let mut sent = 0;
        while sent < msgs.len() {
            let n = sender.send(&tx, msgs[sent..].iter().copied()).unwrap();
            assert!(n <= 2);
            sent += n.max(1);
        }
        let mut batch = RecvBatch::new(3);
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut total = 0;
        while total < payloads.len() && Instant::now() < deadline {
            total += batch.recv(&rx).unwrap();
            if total == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(total, payloads.len());
    }

    #[test]
    fn poller_wakes_on_readiness_and_times_out_when_idle() {
        let (tx, rx, rx_addr) = pair();
        let mut poller = Poller::new().unwrap();
        poller.register(&rx).unwrap();

        // Idle: a short wait elapses without reporting readiness.
        let start = Instant::now();
        let ready = poller.wait(Duration::from_millis(20)).unwrap();
        #[cfg(target_os = "linux")]
        {
            assert_eq!(ready, 0);
            assert!(start.elapsed() >= Duration::from_millis(15));
        }
        #[cfg(not(target_os = "linux"))]
        let _ = (ready, start);

        // A pending datagram wakes the wait (immediately, on Linux).
        tx.send_to(b"ping", rx_addr).unwrap();
        let woke = Instant::now();
        let ready = poller.wait(Duration::from_secs(5)).unwrap();
        #[cfg(target_os = "linux")]
        {
            assert!(ready > 0, "registered socket with data must be ready");
            assert!(woke.elapsed() < Duration::from_secs(2));
        }
        #[cfg(not(target_os = "linux"))]
        let _ = (ready, woke);
    }

    #[test]
    fn eintr_is_retried_not_classed_as_flow_control() {
        // Regression: `Interrupted` used to count as would-block, so an
        // EINTR'd sendmmsg reported `Ok(0)` — a phantom backpressure stall
        // — and, in a private copy of the classifier, ended a drain early.
        // There is one copy now.
        let eintr = io::Error::from(io::ErrorKind::Interrupted);
        assert!(!would_block(&eintr));
        assert!(interrupted(&eintr));
        assert!(!soft_io_error(&eintr));
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            assert!(would_block(&io::Error::from(kind)));
            assert!(!interrupted(&io::Error::from(kind)));
        }
    }

    #[test]
    fn an_empty_send_is_a_no_op() {
        let (tx, _rx, _) = pair();
        let mut sender = SendBatch::new(4);
        assert_eq!(sender.send(&tx, std::iter::empty()).unwrap(), 0);
    }

    #[test]
    fn recv_batch_reuses_its_headers_across_calls() {
        // The mmsghdr array is built once; a second and third recv through
        // the same batch must still land each datagram in its own slot.
        let (tx, rx, rx_addr) = pair();
        let mut batch = RecvBatch::new(4);
        for round in 0u8..3 {
            assert_eq!(batch.recv(&rx).unwrap(), 0, "drained before round {round}");
            for i in 0u8..3 {
                tx.send_to(&[round, i, i], rx_addr).unwrap();
            }
            let deadline = Instant::now() + Duration::from_secs(2);
            let mut got = Vec::new();
            while got.len() < 3 && Instant::now() < deadline {
                if batch.recv(&rx).unwrap() > 0 {
                    got.extend(batch.datagrams().map(<[u8]>::to_vec));
                }
            }
            got.sort();
            let want: Vec<Vec<u8>> = (0u8..3).map(|i| vec![round, i, i]).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_pending_datagram_ends_a_sub_millisecond_wait_at_once() {
        let (tx, rx, rx_addr) = pair();
        let mut poller = Poller::new().unwrap();
        poller.register(&rx).unwrap();
        tx.send_to(b"ping", rx_addr).unwrap();
        // Loopback delivery is synchronous on Linux; elsewhere the wait
        // reports every socket ready regardless.
        let ready = poller.wait(Duration::from_micros(500)).unwrap();
        assert_eq!(ready, 1, "a readable socket must end a short wait");
        assert_eq!(poller.ready(), [0]);
    }

    #[test]
    fn an_idle_sub_millisecond_wait_lasts_its_timeout() {
        let (_tx, rx, _) = pair();
        let mut poller = Poller::new().unwrap();
        // With and without a registered socket: an empty poller is a timer.
        for registered in [false, true] {
            if registered {
                poller.register(&rx).unwrap();
            }
            let start = Instant::now();
            let ready = poller.wait(Duration::from_micros(200)).unwrap();
            let elapsed = start.elapsed();
            #[cfg(target_os = "linux")]
            assert_eq!(ready, 0);
            #[cfg(not(target_os = "linux"))]
            let _ = ready;
            assert!(elapsed >= Duration::from_micros(200), "woke early");
            assert!(elapsed < Duration::from_millis(50), "overslept");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn ready_names_exactly_the_readable_sockets() {
        let socks = [pair(), pair(), pair()];
        let mut poller = Poller::new().unwrap();
        for (_, rx, _) in &socks {
            poller.register(rx).unwrap();
        }
        assert_eq!(poller.wait(Duration::ZERO).unwrap(), 0);
        assert!(poller.ready().is_empty());
        let (tx, _, third) = &socks[2];
        tx.send_to(b"ping", third).unwrap();
        assert_eq!(poller.wait(Duration::from_secs(2)).unwrap(), 1);
        assert_eq!(poller.ready(), [2]);
        // Level-triggered: still readable until drained; a later wait
        // forgets the earlier answer.
        assert_eq!(poller.wait(Duration::ZERO).unwrap(), 1);
        RecvBatch::new(2).recv(&socks[2].1).unwrap();
        assert_eq!(poller.wait(Duration::ZERO).unwrap(), 0);
        assert!(poller.ready().is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn without_ns_timeouts_waits_round_up_and_still_wake_on_readiness() {
        // What a pre-5.11 kernel gets after its one `ENOSYS`.
        let (tx, rx, rx_addr) = pair();
        let mut poller = Poller::new().unwrap();
        poller.register(&rx).unwrap();
        poller.ns_timeouts = false;
        let start = Instant::now();
        assert_eq!(poller.wait(Duration::from_micros(200)).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(1), "rounded down");
        tx.send_to(b"ping", rx_addr).unwrap();
        let start = Instant::now();
        assert_eq!(poller.wait(Duration::from_secs(5)).unwrap(), 1);
        assert_eq!(poller.ready(), [0]);
        assert!(start.elapsed() < Duration::from_secs(2));
    }
}
