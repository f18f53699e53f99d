//! Queue-ordering policies.
//!
//! A policy maps a waiting job to a sort key; lower keys run first. All
//! fair-share variants recompute keys from the decayed ledger *every
//! scheduling cycle* — that is the "dynamic reprioritization" by which a
//! newly submitted job can poach the queue position of one already delayed
//! by an interstitial job (§3, §4.3.2.1).

use crate::fairshare::FairShare;
use simkit::time::SimTime;
use workload::Job;

/// How the waiting queue is ordered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PriorityPolicy {
    /// First come, first served (tie-break by id).
    Fcfs,
    /// Flat fair share across users with equal shares — the paper's
    /// description of Ross's PBS setup ("the simplest: all users have equal
    /// shares").
    FlatUserShare,
    /// Hierarchical: order by group usage first, then by user usage within
    /// the group — Blue Mountain's LSF ("hierarchical group-level fair
    /// share").
    HierarchicalGroupShare,
    /// Weighted combination of user and group usage — Blue Pacific's DPCS
    /// ("user and group-level fair share").
    UserGroupShare {
        /// Weight on the user's own usage.
        user_weight: f64,
        /// Weight on the group's usage.
        group_weight: f64,
    },
}

/// A totally ordered sort key. Lower runs first.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PriorityKey {
    /// Primary fair-share score (0 for FCFS).
    pub primary: f64,
    /// Secondary fair-share score (within-group usage for hierarchical).
    pub secondary: f64,
    /// Submission instant (earlier first).
    pub submit: SimTime,
    /// Job id — final deterministic tie-break.
    pub id: u64,
}

impl PriorityKey {
    /// Total-order comparison (NaN-free by construction: usages are finite).
    pub fn cmp_total(&self, other: &Self) -> std::cmp::Ordering {
        self.primary
            .partial_cmp(&other.primary)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                self.secondary
                    .partial_cmp(&other.secondary)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(self.submit.cmp(&other.submit))
            .then(self.id.cmp(&other.id))
    }
}

impl PriorityPolicy {
    /// Compute the sort key of `job` at `now` under this policy.
    pub fn key(&self, job: &Job, fairshare: &FairShare, now: SimTime) -> PriorityKey {
        let (primary, secondary) = match *self {
            PriorityPolicy::Fcfs => (0.0, 0.0),
            PriorityPolicy::FlatUserShare => (fairshare.user_usage(now, job.user), 0.0),
            PriorityPolicy::HierarchicalGroupShare => (
                fairshare.group_usage(now, job.group),
                fairshare.user_usage(now, job.user),
            ),
            PriorityPolicy::UserGroupShare {
                user_weight,
                group_weight,
            } => (
                user_weight * fairshare.user_usage(now, job.user)
                    + group_weight * fairshare.group_usage(now, job.group),
                0.0,
            ),
        };
        PriorityKey {
            primary,
            secondary,
            submit: job.submit,
            id: job.id,
        }
    }

    /// Sort a queue of jobs in dispatch order under this policy.
    pub fn order(&self, queue: &mut [Job], fairshare: &FairShare, now: SimTime) {
        queue.sort_by(|a, b| {
            self.key(a, fairshare, now)
                .cmp_total(&self.key(b, fairshare, now))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::time::SimDuration;
    use workload::JobClass;

    fn job(id: u64, user: u32, group: u32, submit: u64) -> Job {
        Job {
            id,
            class: JobClass::Native,
            user,
            group,
            submit: SimTime::from_secs(submit),
            cpus: 1,
            runtime: SimDuration::from_secs(100),
            estimate: SimDuration::from_secs(100),
        }
    }

    fn ledger() -> FairShare {
        FairShare::new(SimDuration::from_hours(24))
    }

    #[test]
    fn fcfs_orders_by_submit_then_id() {
        let fs = ledger();
        let mut q = vec![job(3, 0, 0, 50), job(1, 0, 0, 10), job(2, 0, 0, 10)];
        PriorityPolicy::Fcfs.order(&mut q, &fs, SimTime::from_secs(100));
        assert_eq!(q.iter().map(|j| j.id).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn flat_share_prefers_light_users() {
        let mut fs = ledger();
        fs.charge(SimTime::ZERO, 1, 0, 10_000.0); // user 1 is heavy
        let mut q = vec![job(1, 1, 0, 0), job(2, 2, 0, 50)];
        PriorityPolicy::FlatUserShare.order(&mut q, &fs, SimTime::from_secs(100));
        assert_eq!(q[0].id, 2, "light user jumps ahead despite later submit");
    }

    #[test]
    fn hierarchical_uses_group_first() {
        let mut fs = ledger();
        // Group 0 heavy overall; user 5 in group 1 heavier than user 2 but
        // their group is light, so they still go first.
        fs.charge(SimTime::ZERO, 2, 0, 50_000.0);
        fs.charge(SimTime::ZERO, 5, 1, 20_000.0);
        let mut q = vec![job(1, 2, 0, 0), job(2, 5, 1, 10)];
        PriorityPolicy::HierarchicalGroupShare.order(&mut q, &fs, SimTime::from_secs(100));
        assert_eq!(q[0].id, 2);
    }

    #[test]
    fn hierarchical_breaks_group_ties_by_user() {
        let mut fs = ledger();
        fs.charge(SimTime::ZERO, 1, 0, 9_000.0);
        fs.charge(SimTime::ZERO, 2, 0, 1_000.0);
        // Same group (usage 10k) — user 2 is lighter.
        let mut q = vec![job(1, 1, 0, 0), job(2, 2, 0, 10)];
        PriorityPolicy::HierarchicalGroupShare.order(&mut q, &fs, SimTime::from_secs(0));
        assert_eq!(q[0].id, 2);
    }

    #[test]
    fn weighted_combination_blends() {
        let mut fs = ledger();
        fs.charge(SimTime::ZERO, 1, 0, 1_000.0); // user1/group0
        fs.charge(SimTime::ZERO, 2, 1, 800.0); // user2/group1
        let policy = PriorityPolicy::UserGroupShare {
            user_weight: 1.0,
            group_weight: 0.5,
        };
        // user1: 1000 + 0.5·1000 = 1500; user2: 800 + 0.5·800 = 1200.
        let mut q = vec![job(1, 1, 0, 0), job(2, 2, 1, 10)];
        policy.order(&mut q, &fs, SimTime::ZERO);
        assert_eq!(q[0].id, 2);
    }

    #[test]
    fn dynamic_reprioritization_reorders_over_time() {
        let mut fs = FairShare::new(SimDuration::from_hours(1));
        fs.charge(SimTime::ZERO, 1, 0, 10_000.0);
        fs.charge(SimTime::ZERO, 2, 0, 6_000.0);
        let q0 = {
            let mut q = vec![job(1, 1, 0, 0), job(2, 2, 0, 0)];
            PriorityPolicy::FlatUserShare.order(&mut q, &fs, SimTime::ZERO);
            q[0].id
        };
        assert_eq!(q0, 2);
        // User 2 burns more CPU later; ordering flips at a later cycle.
        fs.charge(SimTime::from_secs(3600), 2, 0, 8_000.0);
        let mut q = vec![job(1, 1, 0, 0), job(2, 2, 0, 0)];
        PriorityPolicy::FlatUserShare.order(&mut q, &fs, SimTime::from_secs(3600));
        assert_eq!(q[0].id, 1, "usage decay + new charge flipped the order");
    }

    #[test]
    fn key_ordering_is_total_and_stable() {
        let fs = ledger();
        let a = PriorityPolicy::Fcfs.key(&job(1, 0, 0, 5), &fs, SimTime::ZERO);
        let b = PriorityPolicy::Fcfs.key(&job(2, 0, 0, 5), &fs, SimTime::ZERO);
        assert_eq!(a.cmp_total(&b), std::cmp::Ordering::Less);
        assert_eq!(b.cmp_total(&a), std::cmp::Ordering::Greater);
        assert_eq!(a.cmp_total(&a), std::cmp::Ordering::Equal);
    }
}
