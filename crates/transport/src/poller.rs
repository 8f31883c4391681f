//! The shared readiness wait used by every event loop in the stack.
//!
//! Both the ring node's event loop ([`crate::node`]) and the daemon
//! layer's session-frontend reactor park the same way when idle: `ppoll`
//! on their socket descriptors, capped by the next protocol timer, so a
//! datagram wakes the loop the moment it lands instead of a fixed-quantum
//! doze quantizing the whole pipeline. This type factors that wait into
//! one place — the Linux path rides the hand-rolled `ppoll` FFI in
//! `crate::mmsg`; every other platform degrades to a plain sleep, which
//! reports every descriptor as "maybe ready", exactly like a wait that
//! could not look.

use std::time::Duration;

/// Most descriptors a [`Poller`] watches: the poll set lives on the
/// stack, so a wait allocates nothing.
pub const MAX_FDS: usize = 8;

/// Which registered descriptors a wait reported readable.
///
/// Bit `i` stands for the `i`-th descriptor passed to
/// [`Poller::set_fds`]. A wait that could not look — a zero timeout, no
/// descriptors, no `ppoll` on this platform, an interrupted call —
/// reports [`Readiness::MAYBE_ALL`], so a caller that skips descriptors
/// reported not readable never misses a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness(u64);

impl Readiness {
    /// Every descriptor may be readable.
    pub const MAYBE_ALL: Readiness = Readiness(u64::MAX);

    /// Whether the descriptor registered at `index` may be readable.
    pub fn may_read(self, index: usize) -> bool {
        index < 64 && self.0 & (1 << index) != 0
    }
}

/// A reusable readiness waiter over a fixed set of file descriptors.
///
/// `Poller` is deliberately stateless beyond its descriptor list: each
/// [`wait`](Poller::wait) issues one `ppoll` and returns when a
/// descriptor is readable or the timeout lapses, with the descriptors
/// that were. Registering no descriptors turns every wait into a plain
/// bounded sleep.
///
/// # Examples
///
/// ```no_run
/// use std::time::Duration;
/// use accelring_transport::Poller;
///
/// let mut poller = Poller::new();
/// poller.set_fds(&[]);
/// let ready = poller.wait(Duration::from_millis(1)); // bounded doze, no fds
/// assert!(ready.may_read(0)); // a plain sleep cannot rule anything out
/// ```
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<i32>,
}

impl Poller {
    /// A poller with no registered descriptors (waits are plain sleeps
    /// until [`set_fds`](Poller::set_fds) is called).
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Replaces the descriptor set future waits park on. `None` entries
    /// of a socket that cannot expose a descriptor are simply skipped by
    /// passing only the `Some` values.
    ///
    /// # Panics
    ///
    /// If `fds` holds more than [`MAX_FDS`] descriptors.
    pub fn set_fds(&mut self, fds: &[i32]) {
        assert!(
            fds.len() <= MAX_FDS,
            "a Poller watches at most {MAX_FDS} fds"
        );
        self.fds.clear();
        self.fds.extend_from_slice(fds);
    }

    /// The registered descriptors.
    pub fn fds(&self) -> &[i32] {
        &self.fds
    }

    /// Parks until any registered descriptor is readable or `timeout`
    /// passes, whichever is first, and reports which descriptors were
    /// readable. A zero timeout returns at once with
    /// [`Readiness::MAYBE_ALL`]; so does a platform without `ppoll`,
    /// after sleeping the timeout.
    pub fn wait(&self, timeout: Duration) -> Readiness {
        if timeout.is_zero() {
            return Readiness::MAYBE_ALL;
        }
        #[cfg(target_os = "linux")]
        if !self.fds.is_empty() {
            return Readiness(crate::mmsg::wait_readable(&self.fds, timeout));
        }
        std::thread::sleep(timeout);
        Readiness::MAYBE_ALL
    }

    /// Reports which registered descriptors are readable right now: one
    /// zero-timeout `ppoll`, never a sleep. Without descriptors or
    /// `ppoll` it reports [`Readiness::MAYBE_ALL`] and issues no syscall.
    pub fn probe(&self) -> Readiness {
        #[cfg(target_os = "linux")]
        if !self.fds.is_empty() {
            return Readiness(crate::mmsg::wait_readable(&self.fds, Duration::ZERO));
        }
        Readiness::MAYBE_ALL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::time::Instant;

    #[test]
    fn empty_poller_sleeps_the_timeout() {
        let p = Poller::new();
        let t0 = Instant::now();
        let ready = p.wait(Duration::from_millis(20));
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert_eq!(ready, Readiness::MAYBE_ALL, "a plain sleep is maybe-ready");
    }

    #[test]
    fn zero_timeout_returns_immediately() {
        let p = Poller::new();
        let t0 = Instant::now();
        let ready = p.wait(Duration::ZERO);
        assert!(t0.elapsed() < Duration::from_millis(10));
        assert_eq!(ready, Readiness::MAYBE_ALL, "a zero timeout is maybe-ready");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn zero_timeout_with_fds_is_maybe_ready() {
        use std::os::fd::AsRawFd;
        let quiet = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut p = Poller::new();
        p.set_fds(&[quiet.as_raw_fd()]);
        assert_eq!(p.wait(Duration::ZERO), Readiness::MAYBE_ALL);
        assert_eq!(Poller::new().probe(), Readiness::MAYBE_ALL);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn readable_fd_cuts_the_wait_short() {
        use std::os::fd::AsRawFd;
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"wake", rx.local_addr().unwrap()).unwrap();
        // Give the loopback datagram a moment to land.
        std::thread::sleep(Duration::from_millis(10));
        let mut p = Poller::new();
        p.set_fds(&[rx.as_raw_fd()]);
        let t0 = Instant::now();
        let ready = p.wait(Duration::from_secs(5));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a waiting datagram must wake the poller immediately"
        );
        assert!(ready.may_read(0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn readiness_names_the_socket_with_a_datagram() {
        use std::os::fd::AsRawFd;
        let empty = UdpSocket::bind("127.0.0.1:0").unwrap();
        let full = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"x", full.local_addr().unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let mut p = Poller::new();
        p.set_fds(&[empty.as_raw_fd(), full.as_raw_fd()]);
        for ready in [p.wait(Duration::from_secs(5)), p.probe()] {
            assert!(!ready.may_read(0), "the empty socket is not readable");
            assert!(ready.may_read(1), "the socket with a datagram is");
        }
        // Drained, the socket drops out of the mask: a probe of two
        // quiet sockets reports neither, and a wait times out empty.
        let mut buf = [0u8; 8];
        full.recv_from(&mut buf).unwrap();
        assert!(!p.probe().may_read(0) && !p.probe().may_read(1));
        let ready = p.wait(Duration::from_millis(5));
        assert!(!ready.may_read(0) && !ready.may_read(1));
    }

    #[test]
    fn only_bare_kernel_sockets_are_gated_by_readiness() {
        use crate::fault::{FaultPlane, InterposedSocket, SocketClass};
        use crate::shm::{ShmCounters, ShmSocket};
        use crate::socket::DatagramSocket;
        use accelring_core::ParticipantId;

        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        assert_eq!(udp.level_triggered(), cfg!(target_os = "linux"));
        let interposed = InterposedSocket::new(
            udp,
            ParticipantId::new(0),
            SocketClass::Data,
            FaultPlane::new(1),
        );
        assert!(
            !interposed.level_triggered(),
            "the interposer must be touched"
        );
        let shm = ShmSocket::bind_ephemeral(ShmCounters::new()).unwrap();
        assert!(!shm.level_triggered(), "the shm doorbell is edge-like");
    }
}
