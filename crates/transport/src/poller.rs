//! The shared readiness wait used by every event loop in the stack.
//!
//! Both the ring node's event loop ([`crate::node`]) and the daemon
//! layer's session-frontend reactor park the same way when idle: `ppoll`
//! on their socket descriptors, capped by the next protocol timer, so a
//! datagram wakes the loop the moment it lands instead of a fixed-quantum
//! doze quantizing the whole pipeline. This type factors that wait into
//! one place — the Linux path rides the hand-rolled `ppoll` FFI in
//! `crate::mmsg`; every other platform degrades to a plain sleep, which
//! callers must treat as "maybe ready" exactly like a `ppoll` timeout.

use std::time::Duration;

/// A reusable readiness waiter over a fixed set of file descriptors.
///
/// `Poller` is deliberately stateless beyond its descriptor list: each
/// [`wait`](Poller::wait) issues one `ppoll` and returns when a
/// descriptor is readable or the timeout lapses. Registering no
/// descriptors turns every wait into a plain bounded sleep.
///
/// # Examples
///
/// ```no_run
/// use std::time::Duration;
/// use accelring_transport::Poller;
///
/// let mut poller = Poller::new();
/// poller.set_fds(&[]);
/// poller.wait(Duration::from_millis(1)); // bounded doze, no fds
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
    pub fn set_fds(&mut self, fds: &[i32]) {
        self.fds.clear();
        self.fds.extend_from_slice(fds);
    }

    /// The registered descriptors.
    pub fn fds(&self) -> &[i32] {
        &self.fds
    }

    /// Parks until any registered descriptor is readable or `timeout`
    /// passes, whichever is first. A zero timeout returns immediately.
    ///
    /// There is no readiness return value on purpose: platforms without
    /// `ppoll` can only sleep, so callers must re-poll their sockets
    /// after every wait regardless of why it ended (the non-blocking
    /// sockets make a spurious re-poll free).
    pub fn wait(&self, timeout: Duration) {
        if timeout.is_zero() {
            return;
        }
        #[cfg(target_os = "linux")]
        if !self.fds.is_empty() {
            crate::mmsg::wait_readable(&self.fds, timeout);
            return;
        }
        std::thread::sleep(timeout);
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
        p.wait(Duration::from_millis(20));
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn zero_timeout_returns_immediately() {
        let p = Poller::new();
        let t0 = Instant::now();
        p.wait(Duration::ZERO);
        assert!(t0.elapsed() < Duration::from_millis(10));
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
        p.wait(Duration::from_secs(5));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a waiting datagram must wake the poller immediately"
        );
    }
}
