//! The wakeup primitive every parked event loop in the transport shares.
//!
//! An event loop parks in `ppoll` when it has nothing to do. Kernel
//! sockets wake it through their own descriptors; work that arrives
//! through userspace — a datagram published into an shm ring, a client
//! command pushed onto a node's channel, a stop request — needs a
//! descriptor of its own. A [`Doorbell`] is that descriptor: an eventfd
//! plus an `armed` flag, so a busy consumer costs its producers no
//! syscalls at all.
//!
//! ## The armed-flag handshake
//!
//! The consumer calls [`Doorbell::arm`] and only then re-checks its work
//! sources; if work slipped in, it calls [`Doorbell::disarm`] and skips
//! the park. A producer publishes its work first and then calls
//! [`Doorbell::notify`], which writes the eventfd only if it finds the
//! flag armed (clearing it, so one park costs at most one write). The
//! SeqCst fences on both sides put the producer's publish and the
//! consumer's arm in one total order, so at least one side observes the
//! other (Dekker): either the consumer sees the work, or the producer
//! sees the flag and rings. The eventfd is just another descriptor in
//! the [`crate::poller::Poller`] set.
//!
//! On non-Linux hosts there is no eventfd: [`Doorbell::fd`] is `None`,
//! ringing is a no-op, and callers keep a bounded doze as the fallback.

use std::io;
use std::sync::atomic::{fence, AtomicBool, Ordering};

/// An eventfd doorbell with an armed flag (see the module docs).
#[derive(Debug)]
pub struct Doorbell {
    armed: AtomicBool,
    fd: sys::EventFd,
}

impl Doorbell {
    /// A disarmed doorbell with a fresh eventfd.
    ///
    /// # Errors
    ///
    /// Propagates eventfd creation failures.
    pub fn new() -> io::Result<Doorbell> {
        Ok(Doorbell {
            armed: AtomicBool::new(false),
            fd: sys::EventFd::new()?,
        })
    }

    /// Producer half, called after the work is published: rings the
    /// eventfd if the consumer is parked (or about to park). Returns
    /// whether it rang. A busy consumer never arms, so this is one fence
    /// and one load on the hot path.
    pub fn notify(&self) -> bool {
        fence(Ordering::SeqCst);
        if self.armed.load(Ordering::Relaxed) && self.armed.swap(false, Ordering::SeqCst) {
            self.fd.ring();
            return true;
        }
        false
    }

    /// Consumer half, called right before the work re-check that
    /// precedes a park.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Withdraws an [`arm`](Doorbell::arm) — after a re-check found
    /// work, or after the park — so producers stop paying for the write.
    /// Returns whether the doorbell was still armed; `false` means a
    /// producer rang it and the eventfd wants a [`drain`](Doorbell::drain).
    pub fn disarm(&self) -> bool {
        self.armed.swap(false, Ordering::SeqCst)
    }

    /// Clears the eventfd counter after a wakeup; returns whether the
    /// doorbell had been rung since the last drain.
    pub fn drain(&self) -> bool {
        self.fd.drain()
    }

    /// The descriptor to park on, if the platform has one.
    pub fn fd(&self) -> Option<i32> {
        self.fd.fd()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Hand-rolled eventfd declarations, in the same no-dependency style
    //! as `crate::mmsg`.

    use std::ffi::c_void;
    use std::io;

    const EFD_NONBLOCK: i32 = 0o4000;
    const EFD_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// A nonblocking eventfd.
    #[derive(Debug)]
    pub(super) struct EventFd {
        fd: i32,
    }

    impl EventFd {
        pub(super) fn new() -> io::Result<EventFd> {
            // SAFETY: plain syscall, no pointers involved.
            let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EventFd { fd })
        }

        /// Makes the fd readable, waking any `ppoll` parked on it. A full
        /// counter (`EAGAIN`) is fine — the fd is already readable.
        pub(super) fn ring(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live stack variable to an fd
            // this struct owns.
            let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Clears the counter; returns true when it was nonzero.
        pub(super) fn drain(&self) -> bool {
            let mut val: u64 = 0;
            // SAFETY: reads at most 8 bytes into a live stack variable
            // from an fd this struct owns (nonblocking: returns EAGAIN
            // rather than parking when the counter is zero).
            let n = unsafe { read(self.fd, (&mut val as *mut u64).cast(), 8) };
            n == 8 && val > 0
        }

        pub(super) fn fd(&self) -> Option<i32> {
            Some(self.fd)
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            // SAFETY: closing an fd this struct exclusively owns.
            let _ = unsafe { close(self.fd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable fallback: no descriptor, so callers doze in bounded
    //! quanta — correct under the "maybe ready" wait contract, just less
    //! prompt.

    use std::io;

    #[derive(Debug)]
    pub(super) struct EventFd;

    impl EventFd {
        pub(super) fn new() -> io::Result<EventFd> {
            Ok(EventFd)
        }

        pub(super) fn ring(&self) {}

        pub(super) fn drain(&self) -> bool {
            false
        }

        pub(super) fn fd(&self) -> Option<i32> {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_rings_only_when_armed() {
        let bell = Doorbell::new().unwrap();
        assert!(!bell.notify(), "a disarmed bell never rings");
        bell.arm();
        assert!(bell.notify());
        assert!(!bell.notify(), "one arm buys one ring");
        bell.arm();
        assert!(bell.disarm(), "nobody rang");
        assert!(!bell.notify());
        bell.arm();
        assert!(bell.notify());
        assert!(!bell.disarm(), "a ring consumes the arm");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_ring_is_drained_once_and_wakes_the_poller() {
        use std::time::{Duration, Instant};
        let bell = Doorbell::new().unwrap();
        assert!(!bell.drain());
        bell.arm();
        assert!(bell.notify());
        let mut poller = crate::poller::Poller::new();
        poller.set_fds(&[bell.fd().unwrap()]);
        let t0 = Instant::now();
        poller.wait(Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert!(bell.drain());
        assert!(!bell.drain());
    }
}
