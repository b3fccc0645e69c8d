//! Area-based channel reservation.
//!
//! `HEAD_ORG` "reserves the wireless channel" before its local information
//! exchange, which is how the paper guarantees that two neighboring heads
//! within `√3·R + 2·R_t` of each other never run `HEAD_ORG` concurrently
//! (relied on in the proof of Theorem 4). We model the mechanism directly: a
//! reservation claims a disk; two reservations conflict when their disks
//! overlap; conflicting requests queue FIFO and are granted as earlier
//! reservations release.

use gs3_geometry::Point;

use crate::ids::NodeId;

/// One outstanding reservation or queued request.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Claim {
    owner: NodeId,
    center: Point,
    radius: f64,
}

impl Claim {
    fn conflicts(&self, other: &Claim) -> bool {
        self.center.distance(other.center) < self.radius + other.radius
    }
}

/// FIFO area-based channel arbiter.
#[derive(Debug, Clone, Default)]
pub struct ChannelManager {
    granted: Vec<Claim>,
    // FIFO by insertion order; grants compact in place, so a plain Vec
    // suffices (and keeps release_into allocation-free).
    waiting: Vec<Claim>,
}

impl ChannelManager {
    /// Creates an arbiter with no outstanding claims.
    #[must_use]
    pub fn new() -> Self {
        ChannelManager::default()
    }

    /// Requests a reservation of the disk of `radius` around `center` for
    /// `owner`. Returns `true` when granted immediately; otherwise the
    /// request queues and will be reported by a later [`release_into`].
    ///
    /// A node may hold at most one reservation; re-requesting while holding
    /// or waiting is idempotent (returns `false` without duplicating).
    ///
    /// [`release_into`]: ChannelManager::release_into
    pub fn request(&mut self, owner: NodeId, center: Point, radius: f64) -> bool {
        if self.granted.iter().any(|c| c.owner == owner) {
            return true;
        }
        if self.waiting.iter().any(|c| c.owner == owner) {
            return false;
        }
        let claim = Claim { owner, center, radius };
        // FIFO fairness: a request must also queue behind conflicting
        // *waiting* requests, or writers could starve.
        let blocked = self.granted.iter().any(|c| c.conflicts(&claim))
            || self.waiting.iter().any(|c| c.conflicts(&claim));
        if blocked {
            self.waiting.push(claim);
            false
        } else {
            self.granted.push(claim);
            true
        }
    }

    /// Releases `owner`'s reservation (or cancels its queued request),
    /// appending the owners of queued requests that become grantable to
    /// `newly`, in FIFO order, without clearing it (the engine reuses one
    /// scratch buffer). Releasing without holding is a no-op.
    pub fn release_into(&mut self, owner: NodeId, newly: &mut Vec<NodeId>) {
        self.granted.retain(|c| c.owner != owner);
        self.waiting.retain(|c| c.owner != owner);
        // In-place compaction: `self.waiting[..w]` holds the claims already
        // re-examined and still blocked, i.e. exactly the still-waiting
        // prefix a newly-scanned claim must also queue behind for FIFO
        // fairness.
        let mut w = 0;
        for r in 0..self.waiting.len() {
            let claim = self.waiting[r];
            let blocked = self.granted.iter().any(|c| c.conflicts(&claim))
                || self.waiting[..w].iter().any(|c| c.conflicts(&claim));
            if blocked {
                self.waiting[w] = claim;
                w += 1;
            } else {
                newly.push(claim.owner);
                self.granted.push(claim);
            }
        }
        self.waiting.truncate(w);
    }

    /// True when `owner` currently holds a granted reservation.
    #[must_use]
    pub fn holds(&self, owner: NodeId) -> bool {
        self.granted.iter().any(|c| c.owner == owner)
    }

    /// Number of granted reservations.
    #[must_use]
    pub fn granted_count(&self) -> usize {
        self.granted.len()
    }

    /// Number of queued (not yet granted) requests.
    #[must_use]
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> NodeId {
        NodeId::new(n)
    }

    fn release(ch: &mut ChannelManager, owner: NodeId) -> Vec<NodeId> {
        let mut newly = Vec::new();
        ch.release_into(owner, &mut newly);
        newly
    }

    #[test]
    fn non_overlapping_grants_immediately() {
        let mut ch = ChannelManager::new();
        assert!(ch.request(id(1), Point::new(0.0, 0.0), 10.0));
        assert!(ch.request(id(2), Point::new(100.0, 0.0), 10.0));
        assert_eq!(ch.granted_count(), 2);
    }

    #[test]
    fn overlapping_queues() {
        let mut ch = ChannelManager::new();
        assert!(ch.request(id(1), Point::new(0.0, 0.0), 10.0));
        assert!(!ch.request(id(2), Point::new(5.0, 0.0), 10.0));
        assert_eq!(ch.waiting_count(), 1);
        let granted = release(&mut ch, id(1));
        assert_eq!(granted, vec![id(2)]);
        assert!(ch.holds(id(2)));
    }

    #[test]
    fn fifo_order_respected() {
        let mut ch = ChannelManager::new();
        assert!(ch.request(id(1), Point::ORIGIN, 10.0));
        assert!(!ch.request(id(2), Point::new(1.0, 0.0), 10.0));
        assert!(!ch.request(id(3), Point::new(2.0, 0.0), 10.0));
        let granted = release(&mut ch, id(1));
        // Only 2 can go; 3 conflicts with 2.
        assert_eq!(granted, vec![id(2)]);
        let granted = release(&mut ch, id(2));
        assert_eq!(granted, vec![id(3)]);
    }

    #[test]
    fn waiting_request_blocks_later_conflicting_request() {
        let mut ch = ChannelManager::new();
        assert!(ch.request(id(1), Point::ORIGIN, 10.0));
        // 2 waits behind 1.
        assert!(!ch.request(id(2), Point::new(5.0, 0.0), 10.0));
        // 3 does not conflict with 1 but conflicts with waiting 2 → queues.
        assert!(!ch.request(id(3), Point::new(22.0, 0.0), 10.0));
        let granted = release(&mut ch, id(1));
        assert_eq!(granted, vec![id(2), id(3)].into_iter().filter(|n| {
            // 2 is granted; 3 conflicts with 2 (distance 17 < 20) so stays.
            *n == id(2)
        }).collect::<Vec<_>>());
        assert_eq!(ch.waiting_count(), 1);
    }

    #[test]
    fn rerequest_idempotent() {
        let mut ch = ChannelManager::new();
        assert!(ch.request(id(1), Point::ORIGIN, 10.0));
        assert!(ch.request(id(1), Point::ORIGIN, 10.0));
        assert_eq!(ch.granted_count(), 1);
        assert!(!ch.request(id(2), Point::new(5.0, 0.0), 10.0));
        assert!(!ch.request(id(2), Point::new(5.0, 0.0), 10.0));
        assert_eq!(ch.waiting_count(), 1);
    }

    #[test]
    fn release_without_holding_is_noop() {
        let mut ch = ChannelManager::new();
        assert!(release(&mut ch, id(7)).is_empty());
    }

    #[test]
    fn cancel_queued_request() {
        let mut ch = ChannelManager::new();
        assert!(ch.request(id(1), Point::ORIGIN, 10.0));
        assert!(!ch.request(id(2), Point::new(5.0, 0.0), 10.0));
        // Cancelling 2's queued request leaves the queue empty.
        let granted = release(&mut ch, id(2));
        assert!(granted.is_empty());
        assert_eq!(ch.waiting_count(), 0);
    }

    #[test]
    fn release_into_appends_without_clearing() {
        let mut ch = ChannelManager::new();
        assert!(ch.request(id(1), Point::ORIGIN, 10.0));
        assert!(!ch.request(id(2), Point::new(5.0, 0.0), 10.0));
        let mut buf = vec![id(99)];
        ch.release_into(id(1), &mut buf);
        // Appends after existing contents — the caller owns clearing.
        assert_eq!(buf, vec![id(99), id(2)]);
        assert!(ch.holds(id(2)));
    }

    #[test]
    fn multiple_grants_on_one_release() {
        let mut ch = ChannelManager::new();
        assert!(ch.request(id(1), Point::ORIGIN, 30.0));
        assert!(!ch.request(id(2), Point::new(-25.0, 0.0), 10.0));
        assert!(!ch.request(id(3), Point::new(25.0, 0.0), 10.0));
        let granted = release(&mut ch, id(1));
        // 2 and 3 are 50 apart (> 20): both grantable.
        assert_eq!(granted, vec![id(2), id(3)]);
    }
}
