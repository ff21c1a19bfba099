//! Minimal readiness polling over raw OS primitives.
//!
//! The reactor needs exactly four operations — register, rearm, remove,
//! wait — so this module binds them directly: `epoll` on Linux (constant
//! time per ready event) and POSIX `poll` elsewhere. The symbols are
//! declared by hand against libc (which every Rust program already links)
//! instead of pulling in a bindings crate; the workspace's no-new-deps
//! rule is why this file exists.
//!
//! Both backends are level-triggered: a socket that still has buffered
//! bytes (or window space) reports ready on every wait, so the reactor
//! never needs to drain-to-`WouldBlock` for correctness, only for
//! efficiency.

use std::io;
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Interest set for one registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or a peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event: the token the descriptor was registered under,
/// plus what it is ready for. `error` covers `EPOLLERR`/`EPOLLHUP`-class
/// conditions; the reactor treats it as "read until the real error
/// surfaces".
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Registration token.
    pub token: usize,
    /// Ready to read (or peer closed).
    pub readable: bool,
    /// Ready to write.
    pub writable: bool,
    /// Error/hang-up condition on the descriptor.
    pub error: bool,
}

/// Clamp a poll timeout to the millisecond `int` both syscalls take.
/// `None` blocks indefinitely; sub-millisecond timeouts round up so a
/// near deadline cannot spin at zero.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => t
            .as_millis()
            .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    // The kernel's epoll_event is packed (12 bytes, no padding between the
    // u32 mask and the u64 payload) on x86/x86_64 only; every other Linux
    // arch (aarch64, riscv64, …) uses the natural 16-byte layout with the
    // payload at offset 8. Mirror libc: conditional `repr(packed)` on a
    // `repr(C)` struct, with a per-arch size assertion so a layout drift
    // fails the build instead of corrupting the event buffer.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const _: () = assert!(
        std::mem::size_of::<EpollEvent>()
            == if cfg!(any(target_arch = "x86", target_arch = "x86_64")) {
                12
            } else {
                16
            },
        "EpollEvent must match the kernel ABI for this architecture",
    );

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Readiness poller backed by an epoll instance.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn mask(interest: Interest) -> u32 {
            let mut events = EPOLLRDHUP;
            if interest.readable {
                events |= EPOLLIN;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            events
        }

        fn ctl(&self, op: c_int, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
            let mut event = event;
            let ptr = event
                .as_mut()
                .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            if unsafe { epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_ADD,
                fd,
                Some(EpollEvent {
                    events: Self::mask(interest),
                    data: token as u64,
                }),
            )
        }

        pub fn rearm(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_MOD,
                fd,
                Some(EpollEvent {
                    events: Self::mask(interest),
                    data: token as u64,
                }),
            )
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for raw in &self.buf[..n as usize] {
                let bits = raw.events;
                events.push(Event {
                    token: raw.data as usize,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    /// Readiness poller backed by POSIX `poll` over a shadow registration
    /// table. O(registered) per wait, which is fine at this crate's scale;
    /// Linux gets the epoll backend.
    pub struct Poller {
        registered: Vec<(RawFd, usize, Interest)>,
        buf: Vec<PollFd>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Poller {
                registered: Vec::new(),
                buf: Vec::new(),
            })
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.registered.push((fd, token, interest));
            Ok(())
        }

        pub fn rearm(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            match self.registered.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(slot) => {
                    *slot = (fd, token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.retain(|(f, _, _)| *f != fd);
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            self.buf.clear();
            for (fd, _, interest) in &self.registered {
                let mut mask = 0;
                if interest.readable {
                    mask |= POLLIN;
                }
                if interest.writable {
                    mask |= POLLOUT;
                }
                self.buf.push(PollFd {
                    fd: *fd,
                    events: mask,
                    revents: 0,
                });
            }
            let n = unsafe {
                poll(
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_ulong,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (raw, (_, token, _)) in self.buf.iter().zip(&self.registered) {
                if raw.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token: *token,
                    readable: raw.revents & (POLLIN | POLLHUP) != 0,
                    writable: raw.revents & POLLOUT != 0,
                    error: raw.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

pub use imp::Poller;

/// Cross-thread wakeup for a blocked [`Poller::wait`]: a nonblocking
/// socketpair whose read end is registered like any connection. Completion
/// hooks (running on service worker threads) call [`WakerHandle::wake`];
/// the reactor drains the read end and processes its completion queue.
///
/// # Coalescing
///
/// A `pending` flag shared by every handle makes wake-ups coalesce: `wake`
/// writes a byte only when no wake-up is pending since the last
/// [`Waker::drain`], so a burst of completions costs one `write` and
/// leaves one byte in the pipe. (A full pipe coalesces too — `wake` treats
/// `WouldBlock` as success.)
///
/// The contract the flag relies on: the reactor processes its completion
/// queue *after* every `drain`, and a waker pushes its work *before* it
/// calls `wake`. `drain` reads the pipe empty first and clears the flag
/// after. A `wake` that lands between the two finds the flag still set and
/// writes nothing, but its work was queued before the flag is cleared, so
/// the processing that follows the drain sees it; every `wake` after the
/// clear writes a fresh byte. The opposite order would be wrong: a byte
/// written by a `wake` racing in after an early clear could be swallowed
/// by the read, leaving the flag set over an empty pipe — and every later
/// `wake` would then skip its write while the poller sleeps.
///
/// A socketpair needs no FFI beyond what [`UnixStream::pair`] already
/// wraps.
pub struct Waker {
    rx: UnixStream,
    shared: Arc<WakerShared>,
}

/// The write end and the pending flag, shared by every [`WakerHandle`]
/// (cloning a handle clones the `Arc`, never the descriptor).
struct WakerShared {
    tx: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    /// Create the pair; both ends are nonblocking.
    pub fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            rx,
            shared: Arc::new(WakerShared {
                tx,
                pending: AtomicBool::new(false),
            }),
        })
    }

    /// The descriptor to register for read interest.
    pub fn fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// A clonable handle that wakes the poller. Cheap enough to call from
    /// every completion hook: it shares this waker's descriptor.
    pub fn handle(&self) -> WakerHandle {
        WakerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Drain pending wakeup bytes after the poller reported the read end
    /// ready, then re-arm coalescing. Reads first, clears the flag after
    /// (see the type docs for why that order); the caller must process
    /// its queued work after this returns.
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        self.shared.pending.store(false, Ordering::SeqCst);
    }
}

/// Cloneable wake-the-reactor handle (see [`Waker`]).
#[derive(Clone)]
pub struct WakerHandle {
    shared: Arc<WakerShared>,
}

impl WakerHandle {
    /// Wake the poller, unless a wake-up is already pending since the last
    /// drain. A full buffer means a wakeup is already pending, which is
    /// just as good; a broken pair means the reactor is gone and there is
    /// nobody left to wake. An interrupted write is retried: with the flag
    /// set, no later `wake` would write the byte in its place.
    pub fn wake(&self) {
        use std::io::Write;
        if !self.shared.pending.swap(true, Ordering::SeqCst) {
            while let Err(e) = (&self.shared.tx).write(&[1]) {
                if e.kind() != io::ErrorKind::Interrupted {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poller_sees_readable_socketpair() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no data yet");
        (&a).write_all(&[42]).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_crosses_threads_and_coalesces() {
        let waker = Waker::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(waker.fd(), 0, Interest::READ).unwrap();
        let handle = waker.handle();
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                handle.wake();
            }
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        t.join().unwrap();
        waker.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(
            events.iter().all(|e| e.token != 0 || !e.readable),
            "drained waker must be quiet"
        );
    }

    /// Open descriptors of this process.
    #[cfg(target_os = "linux")]
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").unwrap().count()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn cloned_handles_share_one_descriptor() {
        let waker = Waker::new().unwrap();
        let handle = waker.handle();
        let before = open_fds();
        let clones: Vec<WakerHandle> = (0..1000).map(|_| handle.clone()).collect();
        let after = open_fds();
        // Other tests of this binary open and close descriptors
        // concurrently, so allow slack; one `dup` per clone would add 1000.
        assert!(
            after < before + 100,
            "1000 clones raised the descriptor count from {before} to {after}"
        );
        for clone in &clones {
            clone.wake();
        }
        waker.drain();
    }

    #[test]
    fn wakes_between_drains_coalesce_into_one_byte() {
        use std::io::Read;
        let waker = Waker::new().unwrap();
        let handle = waker.handle();
        waker.drain();
        for _ in 0..1000 {
            handle.wake();
        }
        let mut buf = [0u8; 64];
        assert_eq!((&waker.rx).read(&mut buf).unwrap(), 1, "one byte pending");
        assert_eq!(
            (&waker.rx).read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock,
            "and nothing behind it"
        );
        waker.drain();
    }

    #[test]
    fn a_wake_after_a_drain_is_seen_by_the_poller() {
        let waker = Waker::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(waker.fd(), 3, Interest::READ).unwrap();
        let handle = waker.handle();
        handle.wake();
        waker.drain();
        handle.wake();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 3 && e.readable),
            "a wake after a drain must re-arm the poller"
        );
    }

    /// The reactor's pattern under a racing producer: wait on the poller,
    /// drain the waker on its event, then process everything queued. A
    /// wake that races a drain must never leave queued work behind a
    /// poller that sleeps through it.
    #[test]
    fn wakes_racing_drains_are_never_lost() {
        use std::sync::atomic::AtomicUsize;
        const ITEMS: usize = 50_000;
        let waker = Waker::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(waker.fd(), 1, Interest::READ).unwrap();
        let handle = waker.handle();
        let queued = Arc::new(AtomicUsize::new(0));
        let producer = {
            let queued = Arc::clone(&queued);
            std::thread::spawn(move || {
                for _ in 0..ITEMS {
                    queued.fetch_add(1, Ordering::SeqCst);
                    handle.wake();
                }
            })
        };
        let mut processed = 0;
        let mut events = Vec::new();
        while processed < ITEMS {
            poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert!(
                !events.is_empty() || queued.load(Ordering::SeqCst) == processed,
                "the poller slept with {} items queued",
                queued.load(Ordering::SeqCst) - processed
            );
            if events.iter().any(|e| e.token == 1) {
                waker.drain();
            }
            processed = queued.load(Ordering::SeqCst);
        }
        producer.join().unwrap();
    }
}
