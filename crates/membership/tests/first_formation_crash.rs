//! A member that stops during the very first formation must not leave
//! the survivors gathering forever.
//!
//! The victim's only join (its proc set is just itself) stays in every
//! survivor's join table. It can never agree with the survivors' joins,
//! so formation waits on it until the consensus timer fails it: every
//! member whose latest join disagrees with this node's own sets when the
//! timer fires is failed, as in Totem.

use accelring_core::{ParticipantId, ProtocolConfig};
use accelring_membership::testing::Cluster;
use accelring_membership::{MembershipConfig, StateKind};

const NODES: u16 = 3;

/// Crashes `victim` `after_ns` into the first formation, runs the
/// survivors for 2 s of virtual time, and checks that they formed the
/// two-member ring.
fn survivors_form_after_crash(victim: usize, after_ns: u64) {
    let mut cluster = Cluster::new(
        NODES,
        ProtocolConfig::accelerated(20, 15),
        MembershipConfig::for_simulation(),
    );
    cluster.run_for(after_ns);
    cluster.crash(victim);
    cluster.run_for(2_000_000_000);

    let survivors: Vec<usize> = (0..NODES as usize).filter(|&i| i != victim).collect();
    let want: Vec<ParticipantId> = survivors
        .iter()
        .map(|&i| ParticipantId::new(i as u16))
        .collect();
    for &i in &survivors {
        assert_eq!(
            cluster.state_of(i),
            StateKind::Operational,
            "victim {victim} at {after_ns} ns: node {i} never left {:?}",
            cluster.state_of(i)
        );
        assert_eq!(
            cluster.ring_of(i),
            want,
            "victim {victim} at {after_ns} ns: node {i} formed the wrong ring"
        );
    }
}

#[test]
fn crash_of_node_0_at_start() {
    survivors_form_after_crash(0, 0);
}

#[test]
fn crash_of_node_1_at_start() {
    survivors_form_after_crash(1, 0);
}

#[test]
fn crash_of_node_2_at_start() {
    survivors_form_after_crash(2, 0);
}

#[test]
fn crash_of_node_0_after_5us() {
    survivors_form_after_crash(0, 5_000);
}

#[test]
fn crash_of_node_1_after_5us() {
    survivors_form_after_crash(1, 5_000);
}

#[test]
fn crash_of_node_2_after_5us() {
    survivors_form_after_crash(2, 5_000);
}
