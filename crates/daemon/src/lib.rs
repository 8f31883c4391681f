//! # accelring-daemon
//!
//! The client–daemon group-messaging layer of the Accelerated Ring stack —
//! the architecture that made Spread successful (Section I of the paper):
//! a clean separation between middleware and application, one set of
//! daemons serving several applications, and **open group semantics** (a
//! process need not be a member of a group to send to it).
//!
//! Features reproduced from Spread:
//!
//! * named groups with client-level join/leave and membership views;
//! * **multi-group multicast**: one message to the members of multiple
//!   distinct groups, with ordering guaranteed *across* groups because
//!   group routing rides the single ring total order;
//! * descriptive client and group names (the "large headers" the paper
//!   mentions as a cost of the production system);
//! * EVS awareness: clients are told about daemon configuration changes,
//!   and clients of departed daemons are pruned from groups consistently
//!   at every surviving daemon.
//!
//! The pure [`engine::GroupEngine`] is runtime-agnostic; the
//! [`runtime::GroupDaemon`] binds it to the real transport through the
//! one daemon reactor ([`runtime::Reactor`]) that the multi-ring daemon
//! shares by implementing [`runtime::DaemonEngine`] for its merge engine.
//!
//! ## Example
//!
//! ```no_run
//! use accelring_core::{ProtocolConfig, Service};
//! use accelring_daemon::{ClientEvent, GroupDaemon};
//! use accelring_membership::MembershipConfig;
//! use accelring_transport::spawn_local_ring;
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nodes = spawn_local_ring(2, ProtocolConfig::default(), MembershipConfig::for_wall_clock())?;
//! let mut nodes = nodes.into_iter();
//! let d0 = GroupDaemon::start(nodes.next().unwrap());
//! let d1 = GroupDaemon::start(nodes.next().unwrap());
//!
//! let alice = d0.connect("alice")?;
//! let bob = d1.connect("bob")?;
//! alice.join("chat")?;
//! bob.join("chat")?;
//! alice.multicast(&["chat"], Bytes::from_static(b"hi"), Service::Agreed)?;
//! while let Ok(event) = bob.events().recv() {
//!     if let ClientEvent::Message { payload, .. } = event {
//!         assert_eq!(&payload[..], b"hi");
//!         break;
//!     }
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod frontend;
pub mod groups;
pub mod packing;
pub mod proto;
pub mod runtime;

pub use engine::{ClientEvent, EngineError, EngineOptions, EngineOutput, GroupEngine};
pub use frontend::{FrontendOptions, Ingress, SessionClient, SessionMux};
pub use groups::{GroupTable, GroupView};
pub use proto::{
    ClientId, GroupAction, GroupMessage, GroupProtoError, SessionFrame, MAX_GROUPS, MAX_NAME,
};
pub use runtime::{DaemonOptions, DaemonStats, GroupClient, GroupDaemon};
